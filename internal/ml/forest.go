package ml

import (
	"fmt"
	"runtime"
	"sync"

	"srcsim/internal/sim"
)

// RandomForestRegressor is a bagged ensemble of CART trees with random
// feature subsampling at each split — the estimator the paper adopts for
// its throughput prediction model (Table I row "Random Forest
// Regression", accuracy 0.94). Trees are fitted concurrently.
type RandomForestRegressor struct {
	// Trees is the ensemble size (default 100).
	Trees int
	// MaxDepth, MinLeaf configure each tree (tree defaults apply).
	MaxDepth int
	MinLeaf  int
	// MaxFeatures examined per split; 0 examines all features (the
	// scikit-learn regression default — bootstrap resampling alone
	// provides the ensemble diversity). Set to d/3 for the classic
	// Breiman heuristic.
	MaxFeatures int
	// Seed makes the whole ensemble deterministic.
	Seed uint64

	trees  []*DecisionTreeRegressor
	d      int
	fitted bool
}

// Name implements Regressor.
func (f *RandomForestRegressor) Name() string { return "Random Forest Regression" }

// Fit implements Regressor. Each tree gets a bootstrap resample of the
// training set and its own RNG stream; fitting is parallelised across
// GOMAXPROCS workers while remaining deterministic for a fixed Seed.
func (f *RandomForestRegressor) Fit(X [][]float64, y []float64) error {
	n, d, err := checkXY(X, y)
	if err != nil {
		return err
	}
	if f.Trees <= 0 {
		f.Trees = 100
	}
	f.d = d
	maxFeatures := f.MaxFeatures
	if maxFeatures <= 0 || maxFeatures > d {
		maxFeatures = d
	}

	f.trees = make([]*DecisionTreeRegressor, f.Trees)
	type job struct{ i int }
	jobs := make(chan job)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error

	workers := runtime.GOMAXPROCS(0)
	if workers > f.Trees {
		workers = f.Trees
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				// Per-tree RNG derived only from (Seed, tree index):
				// parallel scheduling cannot perturb results.
				rng := sim.NewRNG(f.Seed + uint64(j.i)*0x9e3779b97f4a7c15 + 1)
				bx := make([][]float64, n)
				by := make([]float64, n)
				for k := 0; k < n; k++ {
					pick := rng.Intn(n)
					bx[k] = X[pick]
					by[k] = y[pick]
				}
				tree := &DecisionTreeRegressor{
					MaxDepth:    f.MaxDepth,
					MinLeaf:     f.MinLeaf,
					MaxFeatures: maxFeatures,
					Seed:        rng.Uint64(),
				}
				if err := tree.Fit(bx, by); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("ml: tree %d: %w", j.i, err)
					}
					mu.Unlock()
					continue
				}
				f.trees[j.i] = tree
			}
		}()
	}
	for i := 0; i < f.Trees; i++ {
		jobs <- job{i}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	f.fitted = true
	return nil
}

// Dim returns the fitted input dimension (0 before Fit) — callers
// loading persisted forests use it to reject dimension-mismatched
// models before Predict's panic path can trigger.
func (f *RandomForestRegressor) Dim() int { return f.d }

// Predict implements Regressor: the mean of all tree predictions.
func (f *RandomForestRegressor) Predict(x []float64) float64 {
	if !f.fitted {
		panic("ml: RandomForestRegressor.Predict before Fit")
	}
	if len(x) != f.d {
		panic(fmt.Sprintf("ml: predict with %d features, trained on %d", len(x), f.d))
	}
	var s float64
	for _, t := range f.trees {
		s += t.Predict(x)
	}
	return s / float64(len(f.trees))
}

// FeatureImportances returns Breiman impurity importance averaged over
// the ensemble, normalized to sum to 1. The paper uses this to report
// that arrival flow speed carries weight 0.39.
func (f *RandomForestRegressor) FeatureImportances() []float64 {
	if !f.fitted {
		panic("ml: FeatureImportances before Fit")
	}
	out := make([]float64, f.d)
	for _, t := range f.trees {
		for i, v := range t.FeatureImportances() {
			out[i] += v
		}
	}
	var total float64
	for _, v := range out {
		total += v
	}
	if total == 0 {
		return out
	}
	for i := range out {
		out[i] /= total
	}
	return out
}

// TableIRegressors returns constructors for the paper's five Table I
// estimators, in the table's row order. seed makes stochastic estimators
// deterministic.
func TableIRegressors(seed uint64) []func() Regressor {
	return []func() Regressor{
		func() Regressor { return &LinearRegression{} },
		func() Regressor { return &PolynomialRegression{} },
		func() Regressor { return &KNNRegressor{K: 5} },
		func() Regressor { return &DecisionTreeRegressor{Seed: seed} },
		func() Regressor { return &RandomForestRegressor{Trees: 100, Seed: seed} },
	}
}
