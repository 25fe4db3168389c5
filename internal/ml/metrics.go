package ml

import (
	"fmt"
	"sort"

	"srcsim/internal/sim"
)

// R2 returns the coefficient of determination of predictions yhat against
// truth y — the "accuracy" metric of the paper's Tables I and III. A
// perfect predictor scores 1; predicting the mean scores 0; worse is
// negative. Constant y yields R2 = 0 unless predictions are exact.
func R2(y, yhat []float64) float64 {
	if len(y) != len(yhat) || len(y) == 0 {
		panic(fmt.Sprintf("ml: R2 length mismatch %d vs %d", len(y), len(yhat)))
	}
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	var ssRes, ssTot float64
	for i := range y {
		d := y[i] - yhat[i]
		ssRes += d * d
		t := y[i] - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// PredictAll applies a fitted regressor to every row of X.
func PredictAll(r Regressor, X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, row := range X {
		out[i] = r.Predict(row)
	}
	return out
}

// TrainTestSplit shuffles indices with rng and splits them so that
// trainFrac of the samples land in the training set (the paper's 60/40
// protocol for Table I). At least one sample lands on each side when
// n >= 2.
func TrainTestSplit(n int, trainFrac float64, rng *sim.RNG) (train, test []int) {
	if n <= 0 {
		panic("ml: TrainTestSplit with no samples")
	}
	if trainFrac <= 0 || trainFrac >= 1 {
		panic(fmt.Sprintf("ml: trainFrac %v must be in (0,1)", trainFrac))
	}
	perm := rng.Perm(n)
	k := int(float64(n) * trainFrac)
	if k < 1 {
		k = 1
	}
	if k >= n {
		k = n - 1
	}
	return perm[:k], perm[k:]
}

// RankFeatures returns feature indices sorted by descending importance.
func RankFeatures(importance []float64) []int {
	idx := make([]int, len(importance))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return importance[idx[a]] > importance[idx[b]] })
	return idx
}
