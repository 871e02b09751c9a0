package obs

import (
	"math/bits"
	"sync/atomic"
)

// numBuckets is the number of log2 buckets in a Histogram: bucket i counts
// observations v with bits.Len64(v) == i, so bucket 0 holds v == 0 and
// bucket i (i >= 1) holds v in [2^(i-1), 2^i - 1]. Values of any int64
// magnitude fit (negative observations are clamped to 0).
const numBuckets = 64

// Histogram is a fixed-shape, log2-bucketed histogram safe for one
// concurrent writer and any number of concurrent readers (all fields are
// atomics). The shape is fixed so per-shard histograms merge by summing
// buckets; bucket i's inclusive upper bound is BucketBound(i). There is no
// count field: a snapshot's Count is the sum of its buckets.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	sum     atomic.Int64
}

// BucketBound returns the inclusive upper bound of bucket i: 2^i - 1.
func BucketBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return 1<<63 - 1
	}
	return 1<<i - 1
}

// bucketIndex maps an observation to its bucket.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	idx := bits.Len64(uint64(v))
	if idx >= numBuckets {
		return numBuckets - 1
	}
	return idx
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
}

// snapshotInto adds the histogram's current contents to dst.
func (h *Histogram) snapshotInto(dst *HistogramSnapshot) {
	for i := range h.buckets {
		n := h.buckets[i].Load()
		dst.Buckets[i] += n
		dst.Count += n
	}
	dst.Sum += h.sum.Load()
}

// HistogramSnapshot is a merged, immutable view of one or more Histograms.
// Buckets[i] is the raw (non-cumulative) count of observations in bucket i;
// the bucket's inclusive upper bound is BucketBound(i).
type HistogramSnapshot struct {
	Buckets [numBuckets]int64
	Count   int64
	Sum     int64
}

// Quantile returns the inclusive upper bound of the bucket holding the
// q-quantile (0 < q <= 1) observation, or 0 for an empty histogram. With
// log2 buckets this is an upper estimate, tight to within 2x.
func (s *HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q*float64(s.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for i := 0; i < numBuckets; i++ {
		cum += s.Buckets[i]
		if cum >= rank {
			return BucketBound(i)
		}
	}
	return BucketBound(numBuckets - 1)
}

// MaxBucket returns the index of the highest non-empty bucket, or -1 if the
// histogram is empty.
func (s *HistogramSnapshot) MaxBucket() int {
	for i := numBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] != 0 {
			return i
		}
	}
	return -1
}
