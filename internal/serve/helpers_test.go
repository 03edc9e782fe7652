package serve

import (
	"sync/atomic"

	"github.com/approx-analytics/grass/internal/task"
	"github.com/approx-analytics/grass/internal/trace"
)

// countingStream wraps trace.Stream to count how many jobs the server
// hands back to the pool.
type countingStream struct {
	*trace.Stream
	released atomic.Int64
}

func (c *countingStream) Release(j *task.Job) {
	c.released.Add(1)
	c.Stream.Release(j)
}
