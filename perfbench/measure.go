package main

import (
	"bufio"
	"math"
	"math/bits"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// hist is a log-linear histogram of per-op latencies in nanoseconds:
// exact below 2,048 ns, then 1,024 buckets per power of two, so a
// quantile read from it is within 0.1% of the logged value. Its memory
// is fixed, so recording never allocates and a faster program does not
// make the benchmark's own footprint grow.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSubBits = 10
	histSub     = 1 << histSubBits
	histBuckets = 2*histSub + 40*histSub // up to 2^50 ns
)

func histIndex(v uint64) int {
	if v < 2*histSub {
		return int(v)
	}
	e := bits.Len64(v) - histSubBits - 1 // v>>e is in [histSub, 2*histSub)
	return min(histSub*e+int(v>>e), histBuckets-1)
}

// histValue returns the midpoint of bucket i.
func histValue(i int) float64 {
	if i < 2*histSub {
		return float64(i)
	}
	e := i/histSub - 1
	lo := uint64(i-histSub*e) << e
	return float64(lo) + float64(uint64(1)<<e-1)/2
}

func (h *hist) add(d time.Duration) {
	h.counts[histIndex(uint64(max(d, 0)))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the nearest-rank q-quantile of the logged values.
func (h *hist) quantile(q float64) float64 {
	rank := uint64(max(math.Ceil(q*float64(h.n)), 1))
	var cum uint64
	for i, c := range h.counts {
		if cum += c; cum >= rank {
			return histValue(i)
		}
	}
	return 0
}

// The reference kernel is fixed work of the kinds the workloads do:
// integer arithmetic over a table larger than the L1 cache, a walk over a
// map of pointers, and a sort. Run between stretches of ops, it measures
// how fast the host runs at the time. The vCPUs of a shared host slow
// down and speed up by a quarter or more over seconds to minutes, so
// every time the benchmark reports is rescaled, stretch by stretch, to
// what it would be on a host that runs the kernel in refNominal (see
// RATIONALE.md). A run of the kernel allocates nothing, so the runtime
// counters still count only the program's allocations.

// refData is the kernel's data. Every clock has its own, so clients
// that run side by side share none of it.
type refData struct {
	table []uint64
	m     map[uint64]*[8]uint64
	sort  [64]uint64
	sink  uint64
}

func newRefData() *refData {
	r := &refData{table: make([]uint64, 1<<16), m: make(map[uint64]*[8]uint64, 1024)}
	for i := uint64(0); i < 1024; i++ {
		r.m[i*4097] = new([8]uint64)
	}
	return r
}

// refNominal is about the kernel's time between ops on the 2-vCPU Xeon
// host the numbers in RATIONALE.md come from. It sets the scale only:
// any constant compares two builds of the program alike.
const refNominal = 1500 * time.Microsecond

// time runs the kernel once to bring its data back into the caches the
// program's ops evicted, and returns the time of a second run: the
// host's speed, not the program's footprint.
func (r *refData) time() time.Duration {
	r.work()
	t := time.Now()
	r.work()
	return time.Since(t)
}

func (r *refData) work() {
	x := r.sink | 1
	for i := 0; i < 300_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		r.table[x>>48] += x
	}
	for pass := uint64(0); pass < 32; pass++ {
		for k, p := range r.m {
			if k&31 == pass {
				p[0] += x
			}
		}
		for j := range r.sort {
			r.sort[j] = uint64(j*7919+int(pass)) % 64
		}
		slices.Sort(r.sort[:])
	}
	r.sink = x + r.sort[0]
}

// hostClock marks the host's speed with the reference kernel.
type hostClock struct {
	ref  *refData
	last time.Duration
}

func newHostClock() *hostClock {
	c := &hostClock{ref: newRefData()}
	c.last = c.ref.time()
	return c
}

// mark runs the kernel and returns the factor that rescales time measured
// since the previous mark to the nominal host: refNominal over the mean
// of the kernel's two timings around that time.
func (c *hostClock) mark() float64 {
	r := c.ref.time()
	f := 2 * float64(refNominal) / float64(c.last+r)
	c.last = r
	return f
}

// timed runs fn between two marks and returns its time rescaled and as
// measured.
func (c *hostClock) timed(fn func() error) (scaled, raw time.Duration, err error) {
	c.mark()
	t0 := time.Now()
	err = fn()
	raw = time.Since(t0)
	return rescale(raw, c.mark()), raw, err
}

func rescale(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

// windowLen is how long a stretch of ops runs between two marks.
const windowLen = 100 * time.Millisecond

// opLog records the ops of a phase in stretches of about windowLen, each
// between two marks of its clock, and keeps their latencies and op time
// both rescaled and as measured.
type opLog struct {
	clock         *hostClock
	start         time.Time
	window        []time.Duration // latencies of the open stretch
	lat, rawLat   *hist           // latencies of ok ops
	busy, rawBusy time.Duration   // op time, marks excluded
}

func newOpLog(clock *hostClock) *opLog {
	return &opLog{clock: clock, window: make([]time.Duration, 0, 1<<14), lat: new(hist), rawLat: new(hist)}
}

// begin opens a stretch; the clock's last mark must be just before it.
func (l *opLog) begin() { l.start = time.Now() }

// op records one op; ok ops add their latency. It closes the stretch when
// it is long or its buffer is full, and opens the next.
func (l *opLog) op(d time.Duration, ok bool) {
	if ok {
		l.window = append(l.window, d)
	}
	if len(l.window) == cap(l.window) || time.Since(l.start) >= windowLen {
		l.end()
		l.begin()
	}
}

// end closes the open stretch.
func (l *opLog) end() {
	elapsed := time.Since(l.start)
	f := l.clock.mark()
	for _, d := range l.window {
		l.lat.add(rescale(d, f))
		l.rawLat.add(d)
	}
	l.window = l.window[:0]
	l.busy += rescale(elapsed, f)
	l.rawBusy += elapsed
}

// merge adds the log of one of clients that ran side by side: its
// latencies and its share of their mean op time.
func (l *opLog) merge(o *opLog, clients int) {
	l.lat.merge(o.lat)
	l.rawLat.merge(o.rawLat)
	l.busy += o.busy / time.Duration(clients)
	l.rawBusy += o.rawBusy / time.Duration(clients)
}

// quantile returns the nearest-rank q-quantile of sorted.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)])
}

// sortedCopy returns the values of all logs merged and sorted.
func sortedCopy(logs ...[]int64) []int64 {
	var out []int64
	for _, l := range logs {
		out = append(out, l...)
	}
	slices.Sort(out)
	return out
}

// medianDuration returns the median of ds.
func medianDuration(ds []time.Duration) time.Duration {
	s := make([]int64, len(ds))
	for i, d := range ds {
		s[i] = int64(d)
	}
	slices.Sort(s)
	return time.Duration(quantile(s, 0.5))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// The Go runtime metrics the per-layer table reads.
const (
	rmAllocs    = "/gc/heap/allocs:objects"
	rmMutexWait = "/sync/mutex/wait/total:seconds"
	rmGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU  = "/cpu/classes/total:cpu-seconds"
	rmSchedLat  = "/sched/latencies:seconds"
)

// rtSnap is one reading of the runtime metrics, or a sum of differences
// between readings.
type rtSnap struct {
	allocs          uint64
	mutexWait       float64
	gcCPU, totalCPU float64
	sched           []uint64
	buckets         []float64
}

func readRuntime() rtSnap {
	s := []metrics.Sample{{Name: rmAllocs}, {Name: rmMutexWait}, {Name: rmGCCPU}, {Name: rmTotalCPU}, {Name: rmSchedLat}}
	metrics.Read(s)
	h := s[4].Value.Float64Histogram()
	return rtSnap{
		allocs:    s[0].Value.Uint64(),
		mutexWait: s[1].Value.Float64(),
		gcCPU:     s[2].Value.Float64(),
		totalCPU:  s[3].Value.Float64(),
		sched:     slices.Clone(h.Counts),
		buckets:   h.Buckets,
	}
}

// add accumulates the difference between two readings into s, so a sum
// over measured intervals leaves out set-up work between them.
func (s *rtSnap) add(from, to rtSnap) {
	s.allocs += to.allocs - from.allocs
	s.mutexWait += to.mutexWait - from.mutexWait
	s.gcCPU += to.gcCPU - from.gcCPU
	s.totalCPU += to.totalCPU - from.totalCPU
	if s.sched == nil {
		s.sched = make([]uint64, len(to.sched))
		s.buckets = to.buckets
	}
	for i := range to.sched {
		s.sched[i] += to.sched[i] - from.sched[i]
	}
}

// schedP99 returns the 99th percentile of the scheduling latencies in
// s, interpolated inside its histogram bucket.
func (s *rtSnap) schedP99() time.Duration {
	var total uint64
	for _, c := range s.sched {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := 0.99 * float64(total)
	var cum float64
	for i, c := range s.sched {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := s.buckets[i], s.buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = lo
			}
			if math.IsInf(lo, -1) {
				lo = 0
			}
			sec := lo + (hi-lo)*(rank-cum)/float64(c)
			return time.Duration(sec * 1e9)
		}
		cum += float64(c)
	}
	return 0
}

// resetPeakRSS restarts the process's peak resident set (VmHWM) from
// the current one, and reports whether the kernel allowed it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
