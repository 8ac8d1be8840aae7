package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// layers times the calls the traced run makes into each layer of the
// program. Every span is timed from outside, around one call into a
// public function, and is also emitted on an obs.Tracer so the run can
// be inspected in the Chrome trace_event format. A nil *layers is the
// untraced run: do and doAlloc just call fn.
type layers struct {
	tr *obs.Tracer

	mu    sync.Mutex
	ns    map[string]int64  // total span time per layer
	bytes map[string]uint64 // heap bytes allocated inside doAlloc spans
	objs  map[string]uint64 // heap objects allocated inside doAlloc spans
	// spanNS is the total time of all spans; spans never nest, so it is
	// the time the layer spans cover.
	spanNS int64
}

// traceCapacity bounds the harness span ring; the Chrome export keeps
// the most recent spans when a long run emits more.
const traceCapacity = 1 << 18

func newLayers() *layers {
	return &layers{
		tr:    obs.NewTracer(traceCapacity),
		ns:    map[string]int64{},
		bytes: map[string]uint64{},
		objs:  map[string]uint64{},
	}
}

// do runs fn as one span of layer on lane tid (the client goroutine).
func (l *layers) do(layer string, tid int, fn func()) {
	if l == nil {
		fn()
		return
	}
	start := l.tr.Now()
	t0 := time.Now()
	fn()
	d := time.Since(t0).Nanoseconds()
	l.tr.Complete("perfbench", layer, 0, tid, start, d, "", 0)
	l.mu.Lock()
	l.ns[layer] += d
	l.spanNS += d
	l.mu.Unlock()
}

// doAlloc is do that also charges the heap bytes and objects allocated
// while fn runs to layer. The counts are process-wide, so callers use it
// only where a single goroutine allocates.
func (l *layers) doAlloc(layer string, fn func()) {
	if l == nil {
		fn()
		return
	}
	b0, o0 := heapAllocs()
	l.do(layer, 0, fn)
	b1, o1 := heapAllocs()
	l.mu.Lock()
	l.bytes[layer] += b1 - b0
	l.objs[layer] += o1 - o0
	l.mu.Unlock()
}

// ms is the total time of layer's spans in milliseconds.
func (l *layers) ms(layer string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return float64(l.ns[layer]) / 1e6
}

// allocBytes and allocObjects are the heap bytes and objects allocated
// inside layer's doAlloc spans.
func (l *layers) allocBytes(layer string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return float64(l.bytes[layer])
}

func (l *layers) allocObjects(layer string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return float64(l.objs[layer])
}

// covered is the total time all spans cover, in seconds.
func (l *layers) covered() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return float64(l.spanNS) / 1e9
}

// names lists the layers that recorded a span, sorted.
func (l *layers) names() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.ns))
	for n := range l.ns {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// writeChrome exports the spans as a Chrome trace_event document.
func (l *layers) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := l.tr.ExportChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// heapAllocs reads the cumulative heap bytes and objects allocated by
// the process, without stopping the world.
func heapAllocs() (bytes, objects uint64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// totalAlloc is the exact cumulative heap allocation of the process.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// histP50 estimates the median of an obs histogram snapshot from its
// power-of-two buckets, interpolating inside the bucket that holds it.
// It is 0 for an empty histogram.
func histP50(h obs.HistogramSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	half := float64(h.Count) / 2
	var seen float64
	for _, b := range h.Buckets {
		if seen+float64(b.N) >= half {
			// Bucket bounds are 2^i-1, so the bucket starts at half
			// past its bound.
			lo := (b.UpperBound + 1) / 2
			frac := (half - seen) / float64(b.N)
			return float64(lo) + frac*float64(b.UpperBound-lo)
		}
		seen += float64(b.N)
	}
	return float64(h.Max)
}

// subHist removes the observations of base from h, bucket by bucket;
// base must be an earlier snapshot of the same histogram.
func subHist(h, base obs.HistogramSnapshot) obs.HistogramSnapshot {
	out := obs.HistogramSnapshot{Count: h.Count - base.Count, Sum: h.Sum - base.Sum, Max: h.Max}
	byBound := map[uint64]uint64{}
	for _, b := range base.Buckets {
		byBound[b.UpperBound] = b.N
	}
	for _, b := range h.Buckets {
		if n := b.N - byBound[b.UpperBound]; n > 0 {
			out.Buckets = append(out.Buckets, obs.BucketCount{UpperBound: b.UpperBound, N: n})
		}
	}
	return out
}

// mergeHists adds histogram snapshots bucket by bucket.
func mergeHists(hs ...obs.HistogramSnapshot) obs.HistogramSnapshot {
	var out obs.HistogramSnapshot
	byBound := map[uint64]uint64{}
	for _, h := range hs {
		out.Count += h.Count
		out.Sum += h.Sum
		if h.Max > out.Max {
			out.Max = h.Max
		}
		for _, b := range h.Buckets {
			byBound[b.UpperBound] += b.N
		}
	}
	for ub, n := range byBound {
		out.Buckets = append(out.Buckets, obs.BucketCount{UpperBound: ub, N: n})
	}
	sort.Slice(out.Buckets, func(i, j int) bool { return out.Buckets[i].UpperBound < out.Buckets[j].UpperBound })
	return out
}
