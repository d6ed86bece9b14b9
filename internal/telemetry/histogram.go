package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets is one bucket per possible bit length of a uint64 (0..64).
const numBuckets = 65

// Histogram is a log2-bucketed distribution: bucket i holds observations
// whose bit length is i, i.e. values in [2^(i-1), 2^i). The scheme keeps
// recording to two atomic adds with no locking, bounds relative quantile
// error by 2x at any magnitude — the right trade for latencies that span
// nanoseconds to milliseconds — and needs no a-priori bucket layout.
//
// The nil histogram is a no-op.
type Histogram struct {
	count     atomic.Uint64
	sum       atomic.Uint64
	buckets   [numBuckets]atomic.Uint64
	exemplars [numBuckets]atomic.Pointer[Exemplar]
}

// Exemplar ties a concrete observation to an identifier — in this runtime
// a gatetrace trace ID — so a tail bucket in /metrics can be chased back
// to the retained request trace that produced it. Stored per bucket,
// last-writer-wins: the freshest example of "what landed here" is the one
// worth chasing.
type Exemplar struct {
	TraceID string `json:"trace_id"`
	Value   uint64 `json:"value"`
	Bucket  int    `json:"-"` // index; set on snapshot reads
}

// bucketIndex maps a value to its bucket.
func bucketIndex(v uint64) int { return bits.Len64(v) }

// bucketLower returns the smallest value bucket i holds.
func bucketLower(i int) uint64 {
	if i <= 1 {
		return uint64(i) // bucket 0 holds {0}, bucket 1 holds {1}
	}
	return 1 << (i - 1)
}

// bucketUpper returns the largest value bucket i holds.
func bucketUpper(i int) uint64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<i - 1
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
}

// ObserveEx records one value and, when traceID is non-empty, publishes it
// as the bucket's exemplar (see SetExemplar).
func (h *Histogram) ObserveEx(v uint64, traceID string) {
	h.Observe(v)
	h.SetExemplar(v, traceID)
}

// SetExemplar publishes an already observed value as its bucket's
// exemplar, without counting it again; an empty traceID is ignored. The
// write is a single atomic pointer store, so it stays lock-free and safe
// under concurrent callers; racing writers simply overwrite each other,
// which is the semantics we want (keep a recent example, not all of
// them).
func (h *Histogram) SetExemplar(v uint64, traceID string) {
	if h == nil || traceID == "" {
		return
	}
	h.exemplars[bucketIndex(v)].Store(&Exemplar{TraceID: traceID, Value: v})
}

// Exemplars returns the current exemplars, lowest bucket first, with
// Bucket set to the owning bucket index. Loosely consistent under
// concurrent ObserveEx, like snapshot.
func (h *Histogram) Exemplars() []Exemplar {
	if h == nil {
		return nil
	}
	var out []Exemplar
	for i := range h.exemplars {
		if e := h.exemplars[i].Load(); e != nil {
			ex := *e
			ex.Bucket = i
			out = append(out, ex)
		}
	}
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// snapshot copies the bucket counts, count and sum. Under concurrent
// writes the copy is only loosely consistent, which is fine for export.
func (h *Histogram) snapshot() (buckets [numBuckets]uint64, count, sum uint64) {
	if h == nil {
		return
	}
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
	}
	return buckets, h.count.Load(), h.sum.Load()
}

// Quantile estimates the q-th quantile (q in [0, 1]) by locating the
// bucket containing the target rank and interpolating linearly inside it.
// With log2 buckets the estimate is within a factor of two of the true
// value; it returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	buckets, count, _ := h.snapshot()
	return quantileFromBuckets(buckets[:], count, q)
}

// quantileFromBuckets is the shared rank-walk used by Quantile and the
// registry's merged-family quantiles.
func quantileFromBuckets(buckets []uint64, count uint64, q float64) float64 {
	if count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range buckets {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := float64(bucketLower(i)), float64(bucketUpper(i))
			frac := float64(rank-cum) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	return float64(bucketUpper(len(buckets) - 1))
}

// SampleQuantile reads the q-quantile of ascending-sorted exact samples
// by nearest rank: no interpolation, the answer is always one of the
// samples. It returns 0 for no samples.
func SampleQuantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted)-1) + 0.5)
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
