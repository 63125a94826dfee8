package observe

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-layout log-linear latency/value histogram built
// for continuous operation: observations go into lock-free,
// cache-line-padded per-worker shards (plain atomic adds, no mutex, no
// allocation), and a scrape merges the shards into one snapshot. All
// histograms share one bucket layout, so snapshots from different
// histograms — or different processes — are directly comparable and
// mergeable.
//
// The layout is log-linear over powers of two: every octave [2^e,
// 2^(e+1)) is split into histSub linear sub-buckets, covering
// [2^histMinExp, 2^(histMinExp+histOctaves)) with an underflow bucket
// below and a +Inf bucket above. In seconds that spans ~15 ns to ~256 s
// — pool region latencies through multi-minute runs — with ≤ 50%
// relative error per bucket; per-pass ΔQ values land in the same range.
//
// A nil *Histogram is the "telemetry off" state: Observe on it costs
// one pointer comparison, so instrumentation sites never need their own
// guard.
//
//gvevet:nilsafe
type Histogram struct {
	// shards always has power-of-two length, so shard selection is a
	// mask with len-1 — a form the bounds-check prover discharges.
	shards []histShard
}

// Bucket-layout constants. Changing any of these changes the exposition
// layout of every histogram; histShard's padding must be re-derived
// (the padsize analyzer enforces the cache-line geometry).
const (
	// histSub is the number of linear subdivisions per power-of-two
	// octave (the "linear" in log-linear).
	histSub = 2
	// histMinExp is the exponent of the lowest octave: values below
	// 2^histMinExp (≈1.49e-8) fall into the underflow bucket, which is
	// exposed with le = 2^histMinExp.
	histMinExp = -26
	// histOctaves is the number of octaves covered; values at or above
	// 2^(histMinExp+histOctaves) = 2^8 = 256 fall into the +Inf bucket.
	histOctaves = 34

	// NumHistogramBuckets is the total bucket count: one underflow
	// bucket, histSub×histOctaves log-linear buckets, one +Inf bucket.
	NumHistogramBuckets = 2 + histSub*histOctaves
)

// histShard is one worker's counter block, sized so that consecutive
// shards never share a cache line: (70 counts + sum + its compensation)
// × 8 B = 576 B = 9 cache lines exactly. All fields are accessed
// atomically — writers add from any goroutine while a scrape reads
// concurrently.
//
//gvevet:padded
type histShard struct {
	counts  [NumHistogramBuckets]uint64
	sumBits uint64 // math.Float64bits of the shard's value sum
	// errBits accumulates the rounding error of every addition to
	// sumBits (math.Float64bits), so sum + err carries the shard's total
	// to well below one ulp of the sum. Which shard an observation lands
	// in is random; without the compensation the merged Sum would depend
	// on that draw whenever values of very different magnitude mix.
	errBits uint64
}

// NewHistogram returns an empty histogram with one shard per available
// CPU (rounded up to a power of two, capped at 64).
func NewHistogram() *Histogram {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 64 {
		n <<= 1
	}
	return &Histogram{shards: make([]histShard, n)}
}

// Observe records one value. It is lock-free, allocation-free, and safe
// for concurrent use: the observation lands in a pseudo-randomly chosen
// shard (math/rand/v2's per-P generator, so concurrent writers scatter
// across shards instead of contending on one line). Non-finite values
// are dropped; values ≤ 0 land in the underflow bucket.
//
//gvevet:contract noescape nobounds
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	shards := h.shards // pin len in a local so calls below don't defeat the prover
	if len(shards) == 0 {
		return
	}
	if v != v || math.IsInf(v, 0) {
		return // NaN/±Inf would poison the sum
	}
	s := &shards[rand.Uint64()&uint64(len(shards)-1)]
	b := bucketIndex(v)
	if uint(b) >= NumHistogramBuckets {
		return // unreachable: bucketIndex is bounded; lets the prover discharge the index
	}
	atomic.AddUint64(&s.counts[b], 1)
	for {
		old := atomic.LoadUint64(&s.sumBits)
		a := math.Float64frombits(old)
		sum := a + v
		if atomic.CompareAndSwapUint64(&s.sumBits, old, math.Float64bits(sum)) {
			// Knuth's TwoSum: the exact rounding error of a + v.
			bv := sum - a
			if e := (a - (sum - bv)) + (v - bv); e != 0 {
				addFloatBits(&s.errBits, e)
			}
			return
		}
	}
}

// addFloatBits atomically adds v to the float64 stored as bits at p.
func addFloatBits(p *uint64, v float64) {
	for {
		old := atomic.LoadUint64(p)
		if atomic.CompareAndSwapUint64(p, old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records d in seconds — the unit of every duration
// histogram in the exposition.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.Observe(d.Seconds())
}

// bucketIndex maps a value to its bucket. For a positive normal float,
// the exponent bits give the octave and the top mantissa bit the linear
// sub-bucket, so the mapping is two shifts and two compares — no log
// call, no branch on magnitude ranges.
//
//gvevet:contract inline noescape nobounds
func bucketIndex(v float64) int {
	if !(v > 0) {
		return 0 // zero and negative values: underflow bucket
	}
	bits := math.Float64bits(v)
	exp := int(bits>>52&0x7ff) - 1023
	if exp < histMinExp {
		return 0
	}
	if exp >= histMinExp+histOctaves {
		return NumHistogramBuckets - 1
	}
	sub := int(bits >> 51 & 1) // top mantissa bit: v ≥ 1.5·2^exp ?
	return 1 + (exp-histMinExp)*histSub + sub
}

// histBounds holds the upper bound of every finite bucket; the last
// bucket's bound is +Inf and is not materialized. Buckets are half-open
// [lower, upper) — a value exactly at a bound opens the next bucket —
// so the Prometheus `le` label is exact only up to one ULP, which is
// immaterial for measured durations.
var histBounds = func() [NumHistogramBuckets - 1]float64 {
	var b [NumHistogramBuckets - 1]float64
	b[0] = math.Ldexp(1, histMinExp) // underflow bucket: le = 2^histMinExp
	i := 1
	for e := 0; e < histOctaves; e++ {
		b[i] = math.Ldexp(1.5, histMinExp+e)
		b[i+1] = math.Ldexp(2, histMinExp+e)
		i += 2
	}
	return b
}()

// HistogramUpperBounds returns a copy of the shared finite bucket
// bounds, in ascending order; the final bucket (index
// NumHistogramBuckets-1) is the implicit +Inf bucket.
func HistogramUpperBounds() []float64 {
	out := make([]float64, len(histBounds))
	copy(out, histBounds[:])
	return out
}

// HistogramSnapshot is a merged, immutable view of a histogram at one
// instant: per-bucket (non-cumulative) counts, the total count, and the
// value sum.
type HistogramSnapshot struct {
	Counts [NumHistogramBuckets]uint64
	Count  uint64
	Sum    float64
}

// Snapshot merges the shards. Concurrent Observe calls may or may not
// be included — each observation is atomic, so the snapshot is always
// internally consistent (Count equals the bucket total by
// construction).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var snap HistogramSnapshot
	if h == nil {
		return snap
	}
	var sum, comp float64 // Neumaier-compensated sum of the shards' parts
	add := func(x float64) {
		t := sum + x
		if math.Abs(sum) >= math.Abs(x) {
			comp += (sum - t) + x
		} else {
			comp += (x - t) + sum
		}
		sum = t
	}
	for i := range h.shards {
		s := &h.shards[i]
		for b := 0; b < NumHistogramBuckets; b++ {
			c := atomic.LoadUint64(&s.counts[b])
			snap.Counts[b] += c
			snap.Count += c
		}
		add(math.Float64frombits(atomic.LoadUint64(&s.sumBits)))
		add(math.Float64frombits(atomic.LoadUint64(&s.errBits)))
	}
	snap.Sum = sum + comp
	return snap
}

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1) from the
// snapshot: the upper bound of the bucket holding the q·Count-th
// observation (+Inf maps to the largest finite bound). 0 when empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum > rank {
			if i < len(histBounds) {
				return histBounds[i]
			}
			return histBounds[len(histBounds)-1]
		}
	}
	return histBounds[len(histBounds)-1]
}
