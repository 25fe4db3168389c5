package ml

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"srcsim/internal/sim"
)

// synthDataset builds a noisy nonlinear dataset y = 3x0 - 2x1 + x0*x1 + ε.
func synthDataset(n int, seed uint64) ([][]float64, []float64) {
	rng := sim.NewRNG(seed)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x0 := rng.Float64() * 10
		x1 := rng.Float64() * 10
		x2 := rng.Float64() // irrelevant feature
		X[i] = []float64{x0, x1, x2}
		y[i] = 3*x0 - 2*x1 + x0*x1 + rng.Norm(0, 0.5)
	}
	return X, y
}

// linearDataset is exactly linear: y = 2x0 + 5x1 - 7.
func linearDataset(n int, seed uint64) ([][]float64, []float64) {
	rng := sim.NewRNG(seed)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x0, x1 := rng.Float64()*4-2, rng.Float64()*4-2
		X[i] = []float64{x0, x1}
		y[i] = 2*x0 + 5*x1 - 7
	}
	return X, y
}

func TestCheckXYErrors(t *testing.T) {
	cases := map[string]struct {
		X [][]float64
		y []float64
	}{
		"empty":        {nil, nil},
		"len mismatch": {[][]float64{{1}}, []float64{1, 2}},
		"zero width":   {[][]float64{{}}, []float64{1}},
		"ragged":       {[][]float64{{1, 2}, {1}}, []float64{1, 2}},
		"nan feature":  {[][]float64{{math.NaN()}}, []float64{1}},
		"inf target":   {[][]float64{{1}}, []float64{math.Inf(1)}},
	}
	for name, c := range cases {
		if _, _, err := checkXY(c.X, c.y); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestStandardizer(t *testing.T) {
	X := [][]float64{{1, 100, 5}, {3, 100, 5}, {5, 100, 5}}
	s := FitStandardizer(X)
	tx := s.TransformAll(X)
	// Column 0: mean 3, values -> symmetric.
	if math.Abs(tx[0][0]+tx[2][0]) > 1e-12 || tx[1][0] != 0 {
		t.Fatalf("standardize col0: %v", tx)
	}
	// Constant columns map to 0 (std forced to 1).
	for i := range tx {
		if tx[i][1] != 0 || tx[i][2] != 0 {
			t.Fatalf("constant columns should map to 0: %v", tx[i])
		}
	}
}

func TestR2(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	if R2(y, y) != 1 {
		t.Fatal("perfect prediction R2 != 1")
	}
	mean := []float64{2.5, 2.5, 2.5, 2.5}
	if math.Abs(R2(y, mean)) > 1e-12 {
		t.Fatal("mean prediction R2 != 0")
	}
	worse := []float64{4, 3, 2, 1}
	if R2(y, worse) >= 0 {
		t.Fatal("anti-correlated prediction should have negative R2")
	}
	// Constant truth edge cases.
	c := []float64{5, 5}
	if R2(c, c) != 1 {
		t.Fatal("constant exact")
	}
	if R2(c, []float64{5, 6}) != 0 {
		t.Fatal("constant inexact")
	}
}

func TestMetricsPanicOnMismatch(t *testing.T) {
	for name, fn := range map[string]func(){
		"R2 length":    func() { R2([]float64{1}, []float64{1, 2}) },
		"R2 no values": func() { R2(nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestLinearRegressionRecoversCoefficients(t *testing.T) {
	X, y := linearDataset(500, 1)
	lr := &LinearRegression{}
	if err := lr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(lr.Coef[0]-2) > 1e-6 || math.Abs(lr.Coef[1]-5) > 1e-6 {
		t.Fatalf("coef = %v, want [2 5]", lr.Coef)
	}
	if math.Abs(lr.Intercept+7) > 1e-6 {
		t.Fatalf("intercept = %v, want -7", lr.Intercept)
	}
	if r2 := R2(y, PredictAll(lr, X)); r2 < 0.999999 {
		t.Fatalf("R2 = %v on exact linear data", r2)
	}
}

func TestLinearRegressionSingularHandled(t *testing.T) {
	// Duplicate columns: ridge stabiliser must keep the solve finite.
	X := [][]float64{{1, 1}, {2, 2}, {3, 3}, {4, 4}}
	y := []float64{2, 4, 6, 8}
	lr := &LinearRegression{}
	if err := lr.Fit(X, y); err != nil {
		t.Fatalf("collinear fit failed: %v", err)
	}
	if p := lr.Predict([]float64{5, 5}); math.Abs(p-10) > 1e-3 {
		t.Fatalf("collinear predict %v, want 10", p)
	}
}

func TestPredictBeforeFitPanics(t *testing.T) {
	regs := []Regressor{
		&LinearRegression{},
		&PolynomialRegression{},
		&KNNRegressor{},
		&DecisionTreeRegressor{},
		&RandomForestRegressor{},
	}
	for _, r := range regs {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Predict before Fit should panic", r.Name())
				}
			}()
			r.Predict([]float64{1})
		}()
	}
}

func TestPolynomialCapturesInteraction(t *testing.T) {
	X, y := synthDataset(800, 2)
	lin := &LinearRegression{}
	poly := &PolynomialRegression{}
	if err := lin.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := poly.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	r2Lin := R2(y, PredictAll(lin, X))
	r2Poly := R2(y, PredictAll(poly, X))
	if r2Poly < 0.99 {
		t.Fatalf("poly R2 = %v on quadratic data", r2Poly)
	}
	if r2Poly <= r2Lin {
		t.Fatalf("poly (%v) should beat linear (%v) on interaction data", r2Poly, r2Lin)
	}
}

func TestExpandPoly2(t *testing.T) {
	got := expandPoly2([]float64{2, 3}, nil)
	want := []float64{2, 3, 4, 6, 9} // x0, x1, x0², x0x1, x1²
	if len(got) != len(want) {
		t.Fatalf("expand len %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("expand = %v, want %v", got, want)
		}
	}
}

func TestKNNExactNeighbours(t *testing.T) {
	X := [][]float64{{0}, {1}, {10}, {11}}
	y := []float64{0, 2, 10, 12}
	knn := &KNNRegressor{K: 2}
	if err := knn.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if p := knn.Predict([]float64{0.4}); p != 1 {
		t.Fatalf("knn near {0,1} = %v, want 1", p)
	}
	if p := knn.Predict([]float64{10.6}); p != 11 {
		t.Fatalf("knn near {10,11} = %v, want 11", p)
	}
}

func TestKNNKLargerThanN(t *testing.T) {
	knn := &KNNRegressor{K: 50}
	if err := knn.Fit([][]float64{{0}, {1}}, []float64{4, 6}); err != nil {
		t.Fatal(err)
	}
	if p := knn.Predict([]float64{0.5}); p != 5 {
		t.Fatalf("knn with K>n = %v, want mean 5", p)
	}
}

func TestDecisionTreePerfectOnTrainingData(t *testing.T) {
	X, y := synthDataset(300, 3)
	dt := &DecisionTreeRegressor{MaxDepth: 30, MinLeaf: 1}
	if err := dt.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if r2 := R2(y, PredictAll(dt, X)); r2 < 0.999 {
		t.Fatalf("unbounded tree train R2 = %v", r2)
	}
	if dt.LeafCount() < 100 {
		t.Fatalf("leaf count %d suspiciously small", dt.LeafCount())
	}
}

func TestDecisionTreeRespectsMaxDepth(t *testing.T) {
	X, y := synthDataset(500, 4)
	dt := &DecisionTreeRegressor{MaxDepth: 3}
	if err := dt.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if d := dt.Depth(); d > 3 {
		t.Fatalf("depth %d exceeds MaxDepth 3", d)
	}
	if lc := dt.LeafCount(); lc > 8 {
		t.Fatalf("leaf count %d exceeds 2^3", lc)
	}
}

func TestDecisionTreeConstantTarget(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{5, 5, 5, 5}
	dt := &DecisionTreeRegressor{}
	if err := dt.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if dt.Depth() != 0 {
		t.Fatalf("constant target should not split, depth %d", dt.Depth())
	}
	if p := dt.Predict([]float64{99}); p != 5 {
		t.Fatalf("constant predict %v", p)
	}
}

func TestDecisionTreeGeneralizes(t *testing.T) {
	X, y := synthDataset(2000, 5)
	Xtest, ytest := synthDataset(500, 6)
	dt := &DecisionTreeRegressor{MinLeaf: 5}
	if err := dt.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if r2 := R2(ytest, PredictAll(dt, Xtest)); r2 < 0.95 {
		t.Fatalf("tree test R2 = %v", r2)
	}
}

func TestForestBeatsOrMatchesTree(t *testing.T) {
	X, y := synthDataset(1500, 7)
	Xtest, ytest := synthDataset(500, 8)
	dt := &DecisionTreeRegressor{MinLeaf: 5, Seed: 1}
	rf := &RandomForestRegressor{Trees: 60, MinLeaf: 5, Seed: 1}
	if err := dt.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := rf.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	r2T := R2(ytest, PredictAll(dt, Xtest))
	r2F := R2(ytest, PredictAll(rf, Xtest))
	if r2F < r2T-0.02 {
		t.Fatalf("forest (%v) should not lose to single tree (%v)", r2F, r2T)
	}
	if r2F < 0.95 {
		t.Fatalf("forest test R2 = %v", r2F)
	}
}

func TestForestDeterministicAcrossRuns(t *testing.T) {
	X, y := synthDataset(400, 9)
	fit := func() []float64 {
		rf := &RandomForestRegressor{Trees: 20, Seed: 42}
		if err := rf.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 10)
		for i := range out {
			out[i] = rf.Predict(X[i])
		}
		return out
	}
	a, b := fit(), fit()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("forest not deterministic despite fixed seed: %v vs %v", a[i], b[i])
		}
	}
}

func TestForestFeatureImportances(t *testing.T) {
	// x0 and x1 drive y; x2 is noise. Importances must reflect that and
	// sum to 1 (Breiman normalisation).
	X, y := synthDataset(1500, 10)
	rf := &RandomForestRegressor{Trees: 40, Seed: 3}
	if err := rf.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	imp := rf.FeatureImportances()
	var total float64
	for _, v := range imp {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("importances sum %v, want 1", total)
	}
	if imp[2] > 0.1 {
		t.Fatalf("noise feature importance %v too high (%v)", imp[2], imp)
	}
	if imp[0] < 0.2 || imp[1] < 0.2 {
		t.Fatalf("signal features under-weighted: %v", imp)
	}
	rank := RankFeatures(imp)
	if rank[len(rank)-1] != 2 {
		t.Fatalf("noise feature should rank last: %v", rank)
	}
}

// The forest round-trips through gob by way of MarshalBinary and
// UnmarshalBinary, the path core.TPM.Save and LoadTPM take.
func TestForestSaveLoadRoundTrip(t *testing.T) {
	X, y := synthDataset(800, 41)
	rf := &RandomForestRegressor{Trees: 25, Seed: 9}
	if err := rf.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rf); err != nil {
		t.Fatal(err)
	}
	back := &RandomForestRegressor{}
	if err := gob.NewDecoder(&buf).Decode(back); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if got, want := back.Predict(X[i]), rf.Predict(X[i]); got != want {
			t.Fatalf("prediction %d changed after round trip: %v vs %v", i, got, want)
		}
	}
	// Breiman importances must survive serialization bit-exactly: the
	// TPM artifact cache hands reloaded models to the importance report.
	imp, impBack := rf.FeatureImportances(), back.FeatureImportances()
	if len(impBack) != len(imp) {
		t.Fatalf("importance length changed: %d vs %d", len(impBack), len(imp))
	}
	var total float64
	for i := range imp {
		if imp[i] != impBack[i] {
			t.Fatalf("importance %d changed after round trip: %v vs %v", i, impBack[i], imp[i])
		}
		total += impBack[i]
	}
	if total == 0 {
		t.Fatal("round-tripped importances are all zero")
	}
}

func TestForestSaveBeforeFitErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&RandomForestRegressor{}); err == nil {
		t.Fatal("encoding before Fit should error")
	}
	if err := (&RandomForestRegressor{}).UnmarshalBinary([]byte("garbage")); err == nil {
		t.Fatal("garbage decode should error")
	}
}

func TestTrainTestSplit(t *testing.T) {
	rng := sim.NewRNG(1)
	train, test := TrainTestSplit(100, 0.6, rng)
	if len(train) != 60 || len(test) != 40 {
		t.Fatalf("split sizes %d/%d", len(train), len(test))
	}
	seen := map[int]bool{}
	for _, i := range append(append([]int{}, train...), test...) {
		if seen[i] {
			t.Fatalf("index %d appears twice", i)
		}
		seen[i] = true
	}
	if len(seen) != 100 {
		t.Fatalf("split covers %d indices", len(seen))
	}
}

func TestTrainTestSplitEdges(t *testing.T) {
	rng := sim.NewRNG(1)
	train, test := TrainTestSplit(2, 0.01, rng)
	if len(train) != 1 || len(test) != 1 {
		t.Fatalf("tiny split %d/%d", len(train), len(test))
	}
	for _, fn := range []func(){
		func() { TrainTestSplit(0, 0.5, rng) },
		func() { TrainTestSplit(10, 0, rng) },
		func() { TrainTestSplit(10, 1, rng) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestTableIRegressorsRoster(t *testing.T) {
	regs := TableIRegressors(1)
	want := []string{
		"Linear Regression",
		"Polynomial Regression",
		"K-Nearest Neighbor",
		"Decision Tree Regression",
		"Random Forest Regression",
	}
	if len(regs) != len(want) {
		t.Fatalf("%d regressors", len(regs))
	}
	for i, factory := range regs {
		if name := factory().Name(); name != want[i] {
			t.Fatalf("row %d = %q, want %q", i, name, want[i])
		}
	}
}

// Ordering sanity on nonlinear data: the tree-based and local methods
// should beat plain linear regression, mirroring the qualitative ordering
// of Table I.
func TestTableIOrderingOnNonlinearData(t *testing.T) {
	X, y := synthDataset(1200, 13)
	Xtest, ytest := synthDataset(400, 14)
	scores := map[string]float64{}
	for _, factory := range TableIRegressors(5) {
		r := factory()
		if err := r.Fit(X, y); err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		scores[r.Name()] = R2(ytest, PredictAll(r, Xtest))
	}
	if scores["Random Forest Regression"] <= scores["Linear Regression"] {
		t.Fatalf("RF (%v) should beat linear (%v) on nonlinear data: %v",
			scores["Random Forest Regression"], scores["Linear Regression"], scores)
	}
	if scores["Decision Tree Regression"] <= scores["Linear Regression"] {
		t.Fatalf("DT should beat linear on nonlinear data: %v", scores)
	}
}

func BenchmarkForestFit(b *testing.B) {
	X, y := synthDataset(1000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rf := &RandomForestRegressor{Trees: 30, Seed: uint64(i)}
		if err := rf.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForestPredict(b *testing.B) {
	X, y := synthDataset(1000, 1)
	rf := &RandomForestRegressor{Trees: 50, Seed: 1}
	if err := rf.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rf.Predict(X[i%len(X)])
	}
}

func BenchmarkKNNPredict(b *testing.B) {
	X, y := synthDataset(2000, 1)
	knn := &KNNRegressor{K: 5}
	if err := knn.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = knn.Predict(X[i%len(X)])
	}
}
