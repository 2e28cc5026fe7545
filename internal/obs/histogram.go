package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket geometry: log-spaced octaves (powers of two of the
// nanosecond scale) subdivided into histSub linearly spaced sub-buckets
// — the HDR-histogram layout with 2 mantissa bits. Bucket index is a
// handful of integer ops (one Len64), recording is one atomic add per
// bucket + count + sum, and the relative quantization error is bounded
// by 1/histSub = 25% before interpolation, far inside the bench gate's
// tolerance. NumBuckets covers [0ns, ~137s); anything slower clamps
// into the last bucket, which the exposition reports as +Inf.
const (
	histSubBits = 2
	histSub     = 1 << histSubBits

	// NumBuckets is the fixed bucket count of every Histogram.
	NumBuckets = 144
)

// Histogram is a lock-free fixed-bucket latency histogram: any number
// of goroutines Observe concurrently with plain atomic adds, snapshots
// are cheap copies, and snapshots from different histograms (or
// processes) merge by bucket-wise addition. The zero value is ready to
// use.
//
// A snapshot taken while writers are active may be torn by at most the
// in-flight observations (count, sum and buckets are read
// independently); Quantile therefore derives its total from the bucket
// array itself, never from Count.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
}

// bucketIndex maps a nanosecond value to its bucket: identity below
// histSub, then (octave, sub-bucket) above. The mapping is continuous
// — bucket upper bounds are exactly the next bucket's lower bounds.
func bucketIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	msb := bits.Len64(v) - 1
	idx := (msb-histSubBits)*histSub + int((v>>(msb-histSubBits))&(histSub-1)) + histSub
	if idx >= NumBuckets {
		return NumBuckets - 1
	}
	return idx
}

// BucketBound returns the exclusive upper bound, in nanoseconds, of
// bucket i. The last bucket is the overflow bucket; its nominal bound
// is returned but Observe clamps larger values into it.
func BucketBound(i int) uint64 {
	if i < histSub {
		return uint64(i + 1)
	}
	j := i - histSub
	msb := j/histSub + histSubBits
	sub := uint64(j % histSub)
	return 1<<msb + (sub+1)<<(msb-histSubBits)
}

// octaveEdge reports whether bucket i's upper bound is a power of two
// — the subset of bounds the Prometheus exposition emits.
func octaveEdge(i int) bool {
	if i < histSub {
		return i == histSub-1
	}
	return (i-histSub)%histSub == histSub-1
}

// Observe records one duration. Negative durations count as zero.
//
//rdf:hotpath
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	v := uint64(d)
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// HistogramSnapshot is a point-in-time copy of a histogram, suitable
// for merging and quantile estimation.
type HistogramSnapshot struct {
	Buckets [NumBuckets]uint64
	Count   uint64
	Sum     uint64 // nanoseconds
}

// Snapshot copies the current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// Merge adds o's observations into s: same-geometry histograms from
// different goroutines or processes aggregate exactly.
func (s *HistogramSnapshot) Merge(o *HistogramSnapshot) {
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Quantile estimates the q-quantile (q in [0,1]) with linear
// interpolation inside the target bucket. It returns 0 for an empty
// snapshot. The estimate's relative error is bounded by the sub-bucket
// width (25%) and is far smaller for smooth distributions.
func (s *HistogramSnapshot) Quantile(q float64) time.Duration {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	total := uint64(0)
	for i := range s.Buckets {
		total += s.Buckets[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := 0.0
	for i := range s.Buckets {
		n := float64(s.Buckets[i])
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo := 0.0
			if i > 0 {
				lo = float64(BucketBound(i - 1))
			}
			hi := float64(BucketBound(i))
			frac := (rank - cum) / n
			return time.Duration(lo + (hi-lo)*frac)
		}
		cum += n
	}
	return time.Duration(BucketBound(NumBuckets - 1))
}

// Mean returns the average observed duration, 0 when empty.
func (s *HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / s.Count)
}
