package simevent

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkEngineChurn is the classic hold-model queue benchmark: the
// engine holds a steady pending set of n events, and each fired event
// schedules one replacement at a random future offset, so every iteration
// is one fire + one schedule at fixed queue depth. The heap pays O(log n)
// per operation and the calendar queue O(1) amortized — the gap between
// the two variants at the same n is exactly the queue implementation
// (callbacks, recycling and the staging layer are shared).
func BenchmarkEngineChurn(b *testing.B) {
	for _, q := range queueKinds {
		for _, n := range []int{64, 1024, 16384} {
			b.Run(fmt.Sprintf("%s/pending=%d", q.name, n), func(b *testing.B) {
				eng := q.new()
				rng := rand.New(rand.NewSource(1))
				var fn func(*Engine)
				fn = func(e *Engine) {
					e.At(e.Now()+rng.Float64()*10, fn)
				}
				for i := 0; i < n; i++ {
					eng.At(rng.Float64()*10, fn)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.Step()
				}
			})
		}
	}
}
