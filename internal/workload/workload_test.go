package workload

import (
	"math"
	"strings"
	"testing"

	"srcsim/internal/dist"
	"srcsim/internal/sim"
	"srcsim/internal/trace"
)

// mustMicro generates a micro trace, failing the test on error.
func mustMicro(tb testing.TB, mc MicroConfig) *trace.Trace {
	tb.Helper()
	tr, err := Micro(mc)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

func TestMicroStatistics(t *testing.T) {
	tr := mustMicro(t, MicroConfig{
		Seed:      1,
		ReadCount: 20000, WriteCount: 20000,
		ReadInterArrival: 10 * sim.Microsecond, WriteInterArrival: 20 * sim.Microsecond,
		ReadMeanSize: 44 << 10, WriteMeanSize: 23 << 10,
	})
	if tr.Len() != 40000 {
		t.Fatalf("len %d", tr.Len())
	}
	s := trace.Extract(tr)
	if math.Abs(s.Read.MeanInterArrival-float64(10*sim.Microsecond))/float64(10*sim.Microsecond) > 0.05 {
		t.Fatalf("read inter-arrival %v", s.Read.MeanInterArrival)
	}
	if math.Abs(s.Write.MeanInterArrival-float64(20*sim.Microsecond))/float64(20*sim.Microsecond) > 0.05 {
		t.Fatalf("write inter-arrival %v", s.Write.MeanInterArrival)
	}
	// Sizes are block-rounded so the realized mean shifts up slightly.
	if s.Read.MeanSize < 44<<10*0.95 || s.Read.MeanSize > 44<<10*1.15 {
		t.Fatalf("read mean size %v", s.Read.MeanSize)
	}
	// Exponential inter-arrivals: SCV near 1.
	if math.Abs(s.Read.InterArrivalSCV-1) > 0.1 {
		t.Fatalf("micro read inter-arrival SCV %v, want ~1", s.Read.InterArrivalSCV)
	}
	if s.ReadRatio != 0.5 {
		t.Fatalf("read ratio %v", s.ReadRatio)
	}
}

func TestMicroDeterminism(t *testing.T) {
	mc := MicroConfig{Seed: 7, ReadCount: 500, WriteCount: 500,
		ReadInterArrival: sim.Microsecond, WriteInterArrival: sim.Microsecond,
		ReadMeanSize: 4096, WriteMeanSize: 4096}
	a, b := mustMicro(t, mc), mustMicro(t, mc)
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs between identical seeds", i)
		}
	}
	mc.Seed = 8
	c := mustMicro(t, mc)
	same := true
	for i := range a.Requests {
		if a.Requests[i] != c.Requests[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateInvariants(t *testing.T) {
	tr := mustMicro(t, MicroConfig{Seed: 3, ReadCount: 5000, WriteCount: 5000,
		ReadInterArrival: 5 * sim.Microsecond, WriteInterArrival: 5 * sim.Microsecond,
		ReadMeanSize: 16 << 10, WriteMeanSize: 16 << 10,
		AddressSpace: 1 << 30})
	var prev sim.Time
	for i, r := range tr.Requests {
		if r.Arrival < prev {
			t.Fatalf("trace not time-ordered at %d", i)
		}
		prev = r.Arrival
		if r.Size < Block || r.Size%Block != 0 {
			t.Fatalf("size %d not block aligned", r.Size)
		}
		if r.LBA%Block != 0 {
			t.Fatalf("lba %d not block aligned", r.LBA)
		}
		if r.End() > 1<<30 {
			t.Fatalf("request %d exceeds address space: end=%d", i, r.End())
		}
		if r.ID != uint64(i) {
			t.Fatalf("IDs not sequential at %d", i)
		}
	}
}

func TestGenerateRequiresRNG(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("missing RNG should panic")
		}
	}()
	Generate(Config{}) //nolint:errcheck // panics before returning
}

func TestGenerateMissingSamplerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("missing sampler should panic")
		}
	}()
	Generate(Config{RNG: sim.NewRNG(1), Read: StreamConfig{Count: 5}}) //nolint:errcheck // panics before returning
}

func TestHotFractionCreatesOverlap(t *testing.T) {
	rng := sim.NewRNG(5)
	cfg := Config{
		Read: StreamConfig{
			Count:        5000,
			InterArrival: dist.Constant{V: 1000},
			Size:         dist.Constant{V: Block},
		},
		AddressSpace: 1 << 40,
		HotFraction:  0.0001,
		HotProb:      0.5,
		RNG:          rng,
	}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]int{}
	dup := 0
	for _, r := range tr.Requests {
		seen[r.LBA]++
		if seen[r.LBA] == 2 {
			dup++
		}
	}
	if dup < 100 {
		t.Fatalf("hot fraction produced only %d duplicate LBAs", dup)
	}
}

func TestSyntheticMatchesTargets(t *testing.T) {
	tr, err := Synthetic(SyntheticConfig{
		Seed:      11,
		ReadCount: 30000, WriteCount: 30000,
		ReadInterArrival: 10 * sim.Microsecond, WriteInterArrival: 10 * sim.Microsecond,
		ReadInterArrivalSCV: 4, WriteInterArrivalSCV: 4,
		ReadACF1: 0.2, WriteACF1: 0.2,
		ReadMeanSize: 44 << 10, WriteMeanSize: 23 << 10,
		ReadSizeSCV: 1.5, WriteSizeSCV: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := trace.Extract(tr)
	if math.Abs(s.Read.MeanInterArrival-float64(10*sim.Microsecond))/float64(10*sim.Microsecond) > 0.1 {
		t.Fatalf("synthetic read inter-arrival %v", s.Read.MeanInterArrival)
	}
	if s.Read.InterArrivalSCV < 2.5 {
		t.Fatalf("synthetic read inter-arrival SCV %v, want bursty (~4)", s.Read.InterArrivalSCV)
	}
	if s.Read.InterArrivalACF1 < 0.08 {
		t.Fatalf("synthetic ACF1 %v, want positive correlation", s.Read.InterArrivalACF1)
	}
}

func TestVDILikeShape(t *testing.T) {
	tr, err := VDILike(1, 5000)
	if err != nil {
		t.Fatal(err)
	}
	s := trace.Extract(tr)
	// Read flow should clearly exceed write flow (44KB vs 23KB at equal rate).
	if s.Read.FlowSpeed <= 1.5*s.Write.FlowSpeed {
		t.Fatalf("VDI read flow %v not ~2x write flow %v", s.Read.FlowSpeed, s.Write.FlowSpeed)
	}
	if s.Read.MeanSize < 38<<10 || s.Read.MeanSize > 52<<10 {
		t.Fatalf("VDI read mean size %v", s.Read.MeanSize)
	}
}

func TestCBSLikeWriteDominant(t *testing.T) {
	tr, err := CBSLike(1, 4000)
	if err != nil {
		t.Fatal(err)
	}
	s := trace.Extract(tr)
	if s.ReadRatio >= 0.5 {
		t.Fatalf("CBS should be write-dominant, read ratio %v", s.ReadRatio)
	}
}

// TestSCVClassesSeparate checks that Synthetic realises the low and high
// SCV settings at each corner of the Table III class grid, so the
// requested SCVs TableIII classifies by match the generated traces.
func TestSCVClassesSeparate(t *testing.T) {
	const count = 20000
	for _, class := range SCVClasses {
		highIA := class == LowSizeHighIA || class == HighSizeHighIA
		highSize := class == HighSizeLowIA || class == HighSizeHighIA
		iaSCV, acf1, sizeSCV := 1.0, 0.0, 0.3
		if highIA {
			iaSCV, acf1 = 5, 0.25
		}
		if highSize {
			sizeSCV = 4
		}
		tr, err := Synthetic(SyntheticConfig{
			Seed:      9,
			ReadCount: count, WriteCount: count,
			ReadInterArrival: 15 * sim.Microsecond, WriteInterArrival: 15 * sim.Microsecond,
			ReadInterArrivalSCV: iaSCV, WriteInterArrivalSCV: iaSCV,
			ReadACF1: acf1, WriteACF1: acf1,
			ReadMeanSize: 20 << 10, WriteMeanSize: 20 << 10,
			ReadSizeSCV: sizeSCV, WriteSizeSCV: sizeSCV,
		})
		if err != nil {
			t.Fatalf("%v: %v", class, err)
		}
		s := trace.Extract(tr)
		if highIA && s.Read.InterArrivalSCV < 2 {
			t.Errorf("%v: inter-arrival SCV %v too low", class, s.Read.InterArrivalSCV)
		}
		if !highIA && s.Read.InterArrivalSCV > 1.5 {
			t.Errorf("%v: inter-arrival SCV %v too high", class, s.Read.InterArrivalSCV)
		}
		if highSize && s.Read.SizeSCV < 1.5 {
			t.Errorf("%v: size SCV %v too low", class, s.Read.SizeSCV)
		}
		if !highSize && s.Read.SizeSCV > 1 {
			t.Errorf("%v: size SCV %v too high", class, s.Read.SizeSCV)
		}
	}
}

func TestSCVClassStrings(t *testing.T) {
	for _, c := range SCVClasses {
		if c.String() == "unknown SCV class" {
			t.Fatalf("class %d missing label", c)
		}
	}
	if SCVClass(99).String() != "unknown SCV class" {
		t.Fatal("unknown class label")
	}
}

func TestIntensityOrdering(t *testing.T) {
	flows := map[IntensityLevel]float64{}
	for _, level := range []IntensityLevel{Light, Moderate, Heavy} {
		tr, err := Intensity(level, 3, 5000)
		if err != nil {
			t.Fatal(err)
		}
		s := trace.Extract(tr)
		flows[level] = s.Read.FlowSpeed + s.Write.FlowSpeed
	}
	if !(flows[Light] < flows[Moderate] && flows[Moderate] < flows[Heavy]) {
		t.Fatalf("intensity flows not ordered: %v", flows)
	}
	if Light.String() != "light" || Heavy.String() != "heavy" {
		t.Fatal("intensity labels")
	}
}

func TestIntensityPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown level should panic")
		}
	}()
	Intensity(IntensityLevel(42), 1, 10) //nolint:errcheck // panics before returning
}

func BenchmarkMicroGenerate(b *testing.B) {
	mc := MicroConfig{Seed: 1, ReadCount: 5000, WriteCount: 5000,
		ReadInterArrival: 10 * sim.Microsecond, WriteInterArrival: 10 * sim.Microsecond,
		ReadMeanSize: 44 << 10, WriteMeanSize: 23 << 10}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = Micro(mc)
	}
}

// negSampler violates the dist.Sampler contract after n good samples.
type negSampler struct {
	n int
	v float64
}

func (s *negSampler) Sample() float64 {
	if s.n > 0 {
		s.n--
		return 8192
	}
	return s.v
}

func (s *negSampler) Mean() float64 { return 8192 }

func TestGenerateRejectsNonPositiveSizes(t *testing.T) {
	for _, bad := range []float64{0, -512} {
		cfg := Config{
			Write: StreamConfig{
				Count:        5,
				InterArrival: dist.Constant{V: 1000},
				Size:         &negSampler{n: 3, v: bad},
			},
			RNG: sim.NewRNG(1),
		}
		_, err := Generate(cfg)
		if err == nil {
			t.Fatalf("sampler value %v accepted", bad)
		}
		// The error must attribute the offending stream and request.
		for _, want := range []string{"W stream", "request 3", "non-positive"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not mention %q", err, want)
			}
		}
	}
}

func TestGenerateMaxSizeClampBoundary(t *testing.T) {
	gen := func(sample float64, maxSize int) int {
		t.Helper()
		tr, err := Generate(Config{
			Read: StreamConfig{
				Count:        1,
				InterArrival: dist.Constant{V: 1000},
				Size:         dist.Constant{V: sample},
			},
			MaxSize: maxSize,
			RNG:     sim.NewRNG(1),
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr.Requests[0].Size
	}
	cases := []struct {
		name    string
		sample  float64
		maxSize int
		want    int
	}{
		{"under max unrounded", 5000, 1 << 20, 2 * Block},
		{"exactly max", 1 << 20, 1 << 20, 1 << 20},
		{"one byte over max", 1<<20 + 1, 1 << 20, 1 << 20},
		{"just under max rounds to max", 1<<20 - 1, 1 << 20, 1 << 20},
		{"far over max", 64 << 20, 1 << 20, 1 << 20},
		// Unaligned ceiling: clamp lands on the block grid below it so
		// round-up can never exceed MaxSize.
		{"unaligned max", 3 << 20, 10000, 2 * Block},
		{"sub-block max still one block", 1 << 20, 100, Block},
	}
	for _, tc := range cases {
		if got := gen(tc.sample, tc.maxSize); got != tc.want {
			t.Errorf("%s: sample %v maxSize %d: got %d, want %d", tc.name, tc.sample, tc.maxSize, got, tc.want)
		}
	}
}
