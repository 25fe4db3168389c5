// Package dist provides the random-variate samplers used by the workload
// generators: memoryless (exponential) draws for the paper's "micro"
// traces, log-normal request sizes, and a two-phase
// Markov-modulated Poisson process (MMPP) with a KPC-Toolbox-style
// moment-matching fit for the paper's "synthetic" traces (Sec. IV-A).
package dist

import (
	"fmt"
	"math"

	"srcsim/internal/sim"
)

// Sampler produces positive random variates (inter-arrival times in
// microseconds, request sizes in bytes, ...). Implementations draw from
// the RNG passed at construction, so identical seeds give identical
// streams.
type Sampler interface {
	// Sample returns the next variate. Values are always > 0.
	Sample() float64
	// Mean returns the theoretical mean of the distribution.
	Mean() float64
}

// Exponential is a memoryless sampler. Exponential inter-arrivals and
// sizes define the paper's micro traces.
type Exponential struct {
	mean float64
	rng  *sim.RNG
}

// NewExponential returns an exponential sampler with the given mean.
func NewExponential(mean float64, rng *sim.RNG) *Exponential {
	if mean <= 0 {
		panic(fmt.Sprintf("dist: exponential mean %v must be positive", mean))
	}
	return &Exponential{mean: mean, rng: rng}
}

// Sample implements Sampler.
func (e *Exponential) Sample() float64 {
	v := e.rng.Exp(e.mean)
	if v <= 0 {
		v = e.mean * 1e-9
	}
	return v
}

// Mean implements Sampler.
func (e *Exponential) Mean() float64 { return e.mean }

// Constant always returns the same value; useful for deterministic tests
// and fixed-size workloads.
type Constant struct{ V float64 }

// Sample implements Sampler.
func (c Constant) Sample() float64 { return c.V }

// Mean implements Sampler.
func (c Constant) Mean() float64 { return c.V }

// LogNormal samples a log-normal with the given (linear-space) mean and
// squared coefficient of variation; request-size distributions in block
// traces are commonly log-normal-like.
type LogNormal struct {
	mu, sigma float64
	mean      float64
	rng       *sim.RNG
}

// NewLogNormal builds a log-normal sampler with target mean and SCV.
func NewLogNormal(mean, scv float64, rng *sim.RNG) *LogNormal {
	if mean <= 0 || scv <= 0 {
		panic(fmt.Sprintf("dist: lognormal mean %v scv %v must be positive", mean, scv))
	}
	sigma2 := math.Log(1 + scv)
	mu := math.Log(mean) - sigma2/2
	return &LogNormal{mu: mu, sigma: math.Sqrt(sigma2), mean: mean, rng: rng}
}

// Sample implements Sampler.
func (l *LogNormal) Sample() float64 { return math.Exp(l.rng.Norm(l.mu, l.sigma)) }

// Mean implements Sampler.
func (l *LogNormal) Mean() float64 { return l.mean }
