package main

import (
	"math"
	"sort"
	"time"
)

// beyond is how many samples must lie above a percentile before it is
// reported: with fewer, the value is one of a handful of outliers and does
// not repeat between runs.
const beyond = 10

// median returns the middle value of vs (the mean of the two middle values
// for an even count) without reordering the caller's slice, and NaN for an
// empty one.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// groupedMedian is the median of each group, averaged over the groups with
// their sample counts as weights; empty groups are skipped. For one group it
// is the median.
func groupedMedian(groups [][]float64) float64 {
	var sum, n float64
	for _, g := range groups {
		if len(g) > 0 {
			sum += median(g) * float64(len(g))
			n += float64(len(g))
		}
	}
	return sum / n // NaN for no samples, as median is
}

// percentile returns the p-quantile (0 < p < 1, nearest rank) of vs. ok is
// false when fewer than `beyond` samples lie above it — the
// ten-samples-beyond rule — in which case the value must not be reported.
func percentile(vs []float64, p float64) (v float64, ok bool) {
	if len(vs) == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], len(s)-1-rank >= beyond
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// roundStat is one metric of a workload: the per-round statistic of every
// round, kept so the spread stays visible in the JSON, and the calm quartile
// of them as the value.
type roundStat struct {
	Value  float64   `json:"value"`
	Rounds []float64 `json:"rounds"`
}

// calmOfRounds reduces per-round statistics to one value: the quartile on
// the good side, the 2nd best of 8 rounds. Interference on a shared machine
// is one-sided, it only ever adds time, and on the box this was built on it
// comes in spells of 2 to 40 s, often more than one in a run (README, "Noise
// floor"), so the median over rounds sits inside a spell whenever spells
// cover half a run. A change to the code moves every round, so it moves the
// quartile as it moves the median.
func calmOfRounds(rounds []float64, higherBetter bool) roundStat {
	st := roundStat{Value: math.NaN(), Rounds: rounds}
	if n := len(rounds); n > 0 {
		s := append([]float64(nil), rounds...)
		sort.Float64s(s)
		k := (n+3)/4 - 1 // nearest rank of the lower quartile
		if higherBetter {
			k = n - 1 - k
		}
		st.Value = s[k]
	}
	return st
}

// tailOfRounds is the calm quartile over rounds of the per-round p-quantile
// (of a lower-is-better metric); rounds without a sample are skipped.
// supported is false unless every round has ten samples beyond the quantile:
// the value is then one of a handful of outliers and must not be reported
// as a result.
func tailOfRounds(rounds [][]float64, p float64) (st roundStat, supported bool) {
	supported = len(rounds) > 0
	var per []float64
	for _, r := range rounds {
		v, ok := percentile(r, p)
		supported = supported && ok
		if len(r) > 0 {
			per = append(per, v)
		}
	}
	return calmOfRounds(per, false), supported
}
