package workload

import (
	"srcsim/internal/sim"
	"srcsim/internal/trace"
)

// VDILike returns a synthetic trace matching the statistics the paper
// reports for the Fujitsu VDI trace (Sec. IV-D): read-intensive, average
// read size 44 KB, average write size 23 KB, ~10 µs mean inter-arrival in
// both directions, bursty arrivals. count is the number of requests per
// direction.
func VDILike(seed uint64, count int) (*trace.Trace, error) {
	return Synthetic(SyntheticConfig{
		Seed:      seed,
		ReadCount: count, WriteCount: count,
		ReadInterArrival: 10 * sim.Microsecond, WriteInterArrival: 10 * sim.Microsecond,
		ReadInterArrivalSCV: 3.0, WriteInterArrivalSCV: 2.5,
		ReadACF1: 0.2, WriteACF1: 0.15,
		ReadMeanSize: 44 << 10, WriteMeanSize: 23 << 10,
		ReadSizeSCV: 1.8, WriteSizeSCV: 1.4,
	})
}

// CBSLike returns a synthetic trace with Tencent-CBS-like statistics:
// write-dominant cloud block storage, smaller requests, strong bursts.
func CBSLike(seed uint64, count int) (*trace.Trace, error) {
	return Synthetic(SyntheticConfig{
		Seed:      seed,
		ReadCount: count / 2, WriteCount: count,
		ReadInterArrival: 40 * sim.Microsecond, WriteInterArrival: 20 * sim.Microsecond,
		ReadInterArrivalSCV: 4.0, WriteInterArrivalSCV: 5.0,
		ReadACF1: 0.25, WriteACF1: 0.3,
		ReadMeanSize: 12 << 10, WriteMeanSize: 16 << 10,
		ReadSizeSCV: 2.5, WriteSizeSCV: 2.0,
	})
}

// SCVClass identifies one of the paper's four Table III data subsets,
// crossing low/high request-size SCV with low/high inter-arrival SCV.
type SCVClass int

// The four Table III workload classes.
const (
	LowSizeLowIA SCVClass = iota
	LowSizeHighIA
	HighSizeLowIA
	HighSizeHighIA
)

// String implements fmt.Stringer using the paper's row labels.
func (c SCVClass) String() string {
	switch c {
	case LowSizeLowIA:
		return "low size SCV + low inter-arrival SCV"
	case LowSizeHighIA:
		return "low size SCV + high inter-arrival SCV"
	case HighSizeLowIA:
		return "high size SCV + low inter-arrival SCV"
	case HighSizeHighIA:
		return "high size SCV + high inter-arrival SCV"
	default:
		return "unknown SCV class"
	}
}

// SCVClasses lists all four classes in Table III order.
var SCVClasses = []SCVClass{LowSizeLowIA, LowSizeHighIA, HighSizeLowIA, HighSizeHighIA}

// IntensityLevel labels the Fig. 10 sensitivity workloads.
type IntensityLevel int

// The three Fig. 10 intensity levels.
const (
	Light IntensityLevel = iota
	Moderate
	Heavy
)

// String implements fmt.Stringer.
func (l IntensityLevel) String() string {
	switch l {
	case Light:
		return "light"
	case Moderate:
		return "moderate"
	case Heavy:
		return "heavy"
	default:
		return "unknown intensity"
	}
}

// Intensity returns the paper's Fig. 10 micro workloads: light (22 KB at
// 60 req/ms), moderate (32 KB at 80 req/ms), heavy (44 KB at 100 req/ms),
// per direction.
func Intensity(level IntensityLevel, seed uint64, count int) (*trace.Trace, error) {
	var size int
	var ratePerMS float64
	switch level {
	case Light:
		size, ratePerMS = 22<<10, 60
	case Moderate:
		size, ratePerMS = 32<<10, 80
	case Heavy:
		size, ratePerMS = 44<<10, 100
	default:
		panic("workload: unknown intensity level")
	}
	interArrival := sim.Time(float64(sim.Millisecond) / ratePerMS)
	return Micro(MicroConfig{
		Seed:      seed,
		ReadCount: count, WriteCount: count,
		ReadInterArrival: interArrival, WriteInterArrival: interArrival,
		ReadMeanSize: size, WriteMeanSize: size,
	})
}
