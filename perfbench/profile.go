package main

// CPU attribution for the layers no wrapper can reach (the event queue, the
// estimator, the cluster model, the runtime). The traced pass records a
// runtime/pprof CPU profile; this file decodes its gzipped protocol buffer
// with the standard library alone and charges every sample to the package
// of its innermost repository frame.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

const (
	repoInternal = "github.com/approx-analytics/grass/internal/"
	benchPackage = "main."
)

// cpuLayers are the packages the profile is attributed to. Samples whose
// stack holds no repository frame land in "runtime" (garbage collection,
// the scheduler); the benchmark's own wrappers land in "bench"; other
// repository packages (task, metrics, ...) land in "other".
var cpuLayers = []string{
	"simevent", "sched", "spec", "core", "estimate", "cluster", "dist",
	"trace", "traceio", "serve", "exp", "runtime", "bench", "other",
}

// cpuShares returns each layer's share of the profile's samples, and the
// sample count.
func cpuShares(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	counts := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		layer := "runtime"
	stack:
		for _, locID := range s.locations { // leaf first
			for _, fn := range p.locations[locID] { // innermost inlined frame first
				if l, ok := layerOf(p.strings, p.functions[fn]); ok {
					layer = l
					break stack
				}
			}
		}
		counts[layer] += s.value
		total += s.value
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = ratio(float64(counts[l]), float64(total))
	}
	return shares, total, nil
}

// layerOf maps a function name to its layer, if it is repository code.
func layerOf(strs []string, nameIdx int64) (string, bool) {
	if nameIdx < 0 || nameIdx >= int64(len(strs)) {
		return "", false
	}
	name := strs[nameIdx]
	if strings.HasPrefix(name, benchPackage) {
		return "bench", true
	}
	rest, ok := strings.CutPrefix(name, repoInternal)
	if !ok {
		return "", false
	}
	pkg, _, _ := strings.Cut(rest, ".")
	for _, l := range cpuLayers {
		if l == pkg {
			return l, true
		}
	}
	return "other", true
}

type profSample struct {
	locations []uint64
	value     int64 // the first sample value: the sample count
}

type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location ID → function IDs, innermost first
	functions map[uint64]int64    // function ID → name string index
	strings   []string
}

// Field numbers of perftools.profiles.Profile and its messages.
const (
	profSampleField   = 2
	profLocationField = 4
	profFunctionField = 5
	profStringField   = 6
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := eachField(b, func(field int, wire int, v uint64, msg []byte) error {
		switch field {
		case profSampleField:
			var s profSample
			var values []uint64
			err := eachField(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case 1:
					return appendRepeated(&s.locations, w, v, m)
				case 2:
					return appendRepeated(&values, w, v, m)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case profLocationField:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(m, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case profFunctionField:
			var id uint64
			var name int64
			err := eachField(msg, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case profStringField:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

// appendRepeated collects a repeated integer field, packed or not.
func appendRepeated(dst *[]uint64, wire int, v uint64, msg []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}

// eachField walks one protocol buffer message, calling fn with each field's
// number, wire type, and either its integer value or its bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}
