package sim

import (
	"math"

	"repro/internal/sched"
)

// Distribution sampling on top of the splitmix64 stream in sched.Rand.
// Everything here is deterministic given the seed; no math/rand, no
// global state.

type rng struct {
	r sched.Rand
	// Box-Muller produces pairs; the spare is cached.
	haveSpare bool
	spare     float64
}

func newRNG(seed uint64) *rng {
	rg := &rng{}
	rg.r.Seed(int64(seed))
	return rg
}

func (rg *rng) float64() float64 { return rg.r.Float64() }

// exp samples a unit-mean exponential.
func (rg *rng) exp() float64 {
	// 1-Float64() is in (0,1], so the log is finite.
	return -math.Log(1 - rg.r.Float64())
}

// normal samples a standard normal via Box-Muller.
func (rg *rng) normal() float64 {
	if rg.haveSpare {
		rg.haveSpare = false
		return rg.spare
	}
	u := 1 - rg.r.Float64()
	v := rg.r.Float64()
	r := math.Sqrt(-2 * math.Log(u))
	rg.spare = r * math.Sin(2*math.Pi*v)
	rg.haveSpare = true
	return r * math.Cos(2*math.Pi*v)
}

// lognormal samples a unit-mean lognormal with the given sigma:
// exp(N(-sigma^2/2, sigma)) has mean exactly 1 for every sigma, so tail
// heaviness can be swept without shifting offered work.
func (rg *rng) lognormal(sigma float64) float64 {
	if sigma <= 0 {
		return 1
	}
	return math.Exp(sigma*rg.normal() - sigma*sigma/2)
}

// pareto samples a unit-mean Pareto with shape alpha > 1: scale
// xm = (alpha-1)/alpha makes the mean exactly 1, so mixing it in keeps
// offered work constant while fattening the tail.
func (rg *rng) pareto(alpha float64) float64 {
	xm := (alpha - 1) / alpha
	return xm / math.Pow(1-rg.r.Float64(), 1/alpha)
}

// zipfTable builds the CDF of a Zipf(s) distribution over n tenants;
// sampling is a binary search over it. s=0 is uniform.
func zipfTable(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

func (rg *rng) zipf(cdf []float64) int {
	u := rg.r.Float64()
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
