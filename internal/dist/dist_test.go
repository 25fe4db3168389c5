package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"srcsim/internal/sim"
	"srcsim/internal/stats"
)

func sampleMoments(s Sampler, n int) *stats.Moments {
	var m stats.Moments
	for i := 0; i < n; i++ {
		m.Add(s.Sample())
	}
	return &m
}

func TestExponentialMoments(t *testing.T) {
	s := NewExponential(12, sim.NewRNG(1))
	m := sampleMoments(s, 200000)
	if math.Abs(m.Mean()-12)/12 > 0.02 {
		t.Fatalf("mean = %v, want ~12", m.Mean())
	}
	if math.Abs(m.SCV()-1) > 0.05 {
		t.Fatalf("SCV = %v, want ~1", m.SCV())
	}
	if s.Mean() != 12 {
		t.Fatalf("Mean() = %v", s.Mean())
	}
}

func TestExponentialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive mean should panic")
		}
	}()
	NewExponential(0, sim.NewRNG(1))
}

func TestConstant(t *testing.T) {
	c := Constant{V: 7}
	for i := 0; i < 10; i++ {
		if c.Sample() != 7 {
			t.Fatal("Constant sample changed")
		}
	}
	if c.Mean() != 7 {
		t.Fatal("Constant mean")
	}
}

func TestLogNormalMoments(t *testing.T) {
	for _, scv := range []float64{0.25, 1, 4} {
		l := NewLogNormal(100, scv, sim.NewRNG(3))
		m := sampleMoments(l, 300000)
		if math.Abs(m.Mean()-100)/100 > 0.05 {
			t.Fatalf("scv=%v: mean = %v, want ~100", scv, m.Mean())
		}
		if math.Abs(m.SCV()-scv)/scv > 0.15 {
			t.Fatalf("scv=%v: got SCV %v", scv, m.SCV())
		}
	}
}

func TestSamplersAlwaysPositive(t *testing.T) {
	rng := sim.NewRNG(6)
	samplers := []Sampler{
		NewExponential(5, rng),
		NewLogNormal(5, 2, rng),
		NewMMPP2(1, 0.1, 0.01, 0.01, rng),
	}
	for _, s := range samplers {
		for i := 0; i < 5000; i++ {
			if v := s.Sample(); v <= 0 {
				t.Fatalf("%T produced non-positive sample %v", s, v)
			}
		}
	}
}

func TestMMPP2MomentsAnalyticVsSimulated(t *testing.T) {
	// Empirical statistics of a generated stream must match the closed
	// forms from the MAP representation.
	cases := []MMPP2Params{
		{Lambda1: 2, Lambda2: 0.2, R1: 0.05, R2: 0.05},
		{Lambda1: 1, Lambda2: 1, R1: 1, R2: 1}, // Poisson degenerate
		{Lambda1: 5, Lambda2: 0.5, R1: 0.2, R2: 0.02},
	}
	for _, p := range cases {
		gen := p.New(sim.NewRNG(7))
		am, ascv, arho := gen.Moments()
		const n = 400000
		xs := make([]float64, n)
		var mom stats.Moments
		for i := range xs {
			xs[i] = gen.Sample()
			mom.Add(xs[i])
		}
		if math.Abs(mom.Mean()-am)/am > 0.03 {
			t.Fatalf("%+v: sim mean %v vs analytic %v", p, mom.Mean(), am)
		}
		if math.Abs(mom.SCV()-ascv)/math.Max(ascv, 1) > 0.08 {
			t.Fatalf("%+v: sim SCV %v vs analytic %v", p, mom.SCV(), ascv)
		}
		srho := stats.Autocorrelation(xs, 1)
		if math.Abs(srho-arho) > 0.03 {
			t.Fatalf("%+v: sim rho1 %v vs analytic %v", p, srho, arho)
		}
	}
}

func TestMMPP2PoissonDegenerate(t *testing.T) {
	m := NewMMPP2(3, 3, 1, 1, sim.NewRNG(8))
	mean, scv, rho := m.Moments()
	if math.Abs(mean-1.0/3) > 1e-9 {
		t.Fatalf("degenerate mean = %v, want 1/3", mean)
	}
	if math.Abs(scv-1) > 1e-9 || math.Abs(rho) > 1e-9 {
		t.Fatalf("degenerate scv=%v rho=%v, want 1, 0", scv, rho)
	}
}

func TestMMPP2InterruptedPoisson(t *testing.T) {
	// Lambda2 = 0 (no arrivals in the off state) must still generate.
	m := NewMMPP2(2, 0, 0.1, 0.1, sim.NewRNG(9))
	mom := sampleMoments(m, 50000)
	am, ascv, _ := m.Moments()
	if math.Abs(mom.Mean()-am)/am > 0.05 {
		t.Fatalf("IPP mean %v vs analytic %v", mom.Mean(), am)
	}
	if ascv <= 1 {
		t.Fatalf("IPP SCV %v should exceed 1", ascv)
	}
}

func TestMMPP2Panics(t *testing.T) {
	for name, fn := range map[string]func(){
		"negative lambda": func() { NewMMPP2(-1, 1, 1, 1, sim.NewRNG(1)) },
		"zero r1":         func() { NewMMPP2(1, 1, 0, 1, sim.NewRNG(1)) },
		"no arrivals":     func() { NewMMPP2(0, 0, 1, 1, sim.NewRNG(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFitMMPP2MatchesTargets(t *testing.T) {
	cases := []struct{ mean, scv, rho float64 }{
		{10, 2, 0.1},
		{10, 4, 0.2},
		{25, 8, 0.3},
		{1, 1.5, 0.05},
		{100, 3, 0},
	}
	for _, c := range cases {
		p, err := FitMMPP2(c.mean, c.scv, c.rho)
		if err != nil {
			t.Fatalf("fit(%v) error: %v", c, err)
		}
		m := &MMPP2{Lambda1: p.Lambda1, Lambda2: p.Lambda2, R1: p.R1, R2: p.R2}
		gm, gs, gr := m.Moments()
		if math.Abs(gm-c.mean)/c.mean > 0.05 {
			t.Errorf("fit(%v): mean %v", c, gm)
		}
		if math.Abs(gs-c.scv)/c.scv > 0.1 {
			t.Errorf("fit(%v): scv %v", c, gs)
		}
		if math.Abs(gr-c.rho) > 0.05 {
			t.Errorf("fit(%v): rho %v", c, gr)
		}
	}
}

func TestFitMMPP2PoissonTarget(t *testing.T) {
	p, err := FitMMPP2(5, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Lambda1-p.Lambda2) > 1e-9 {
		t.Fatalf("scv=1 should give equal rates, got %+v", p)
	}
	m := p.New(sim.NewRNG(1))
	if math.Abs(m.Mean()-5)/5 > 1e-6 {
		t.Fatalf("poisson-degenerate mean %v", m.Mean())
	}
}

func TestFitMMPP2ClampsInfeasible(t *testing.T) {
	// scv < 1 and negative rho are infeasible for MMPP2; the fit clamps
	// rather than failing.
	if _, err := FitMMPP2(10, 0.5, -0.3); err != nil {
		t.Fatalf("clamped fit errored: %v", err)
	}
	if _, err := FitMMPP2(0, 2, 0.1); err == nil {
		t.Fatal("non-positive mean must error")
	}
}

// Property: fitted processes always generate positive inter-arrivals with
// mean close to target across a random selection of targets, including
// combinations beyond the ACF1 feasibility frontier (which the fit
// clamps). The quick source is seeded so CI never rolls fresh dice.
func TestPropertyFitMMPP2(t *testing.T) {
	f := func(seedRaw uint32, scvRaw, rhoRaw uint8) bool {
		mean := 1 + float64(seedRaw%1000)
		scv := 1.2 + float64(scvRaw%60)/10 // 1.2 .. 7.1
		rho := float64(rhoRaw%35) / 100    // 0 .. 0.34
		p, err := FitMMPP2(mean, scv, rho)
		if err != nil {
			t.Logf("fit failed for mean=%v scv=%v rho=%v: %v", mean, scv, rho, err)
			return false
		}
		m := &MMPP2{Lambda1: p.Lambda1, Lambda2: p.Lambda2, R1: p.R1, R2: p.R2}
		gm, _, _ := m.Moments()
		return math.Abs(gm-mean)/mean < 0.1
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	// The exact input that used to fail: rho 0.30 demanded at scv 1.3,
	// whose frontier is ~0.115 — the fit must clamp and still converge.
	if !f(0x3c766baf, 0x79, 0x64) {
		t.Fatal("frontier-clamped fit did not converge")
	}
}

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + (x[1]+2)*(x[1]+2) + 1
	}
	x, v := nelderMead(f, []float64{0, 0}, 2000)
	if math.Abs(x[0]-3) > 1e-4 || math.Abs(x[1]+2) > 1e-4 || math.Abs(v-1) > 1e-6 {
		t.Fatalf("nelderMead got x=%v v=%v", x, v)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	x, v := nelderMead(f, []float64{-1, 1}, 10000)
	if v > 1e-4 {
		t.Fatalf("Rosenbrock residual %v at %v", v, x)
	}
}

func BenchmarkMMPP2Sample(b *testing.B) {
	m := NewMMPP2(2, 0.2, 0.05, 0.05, sim.NewRNG(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Sample()
	}
}

func BenchmarkFitMMPP2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = FitMMPP2(10, 4, 0.2)
	}
}
