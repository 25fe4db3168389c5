// Package ml is a small, dependency-free statistical learning library
// implementing exactly the estimators the paper compares in Table I:
// linear regression, polynomial regression, k-nearest-neighbour
// regression, decision-tree (CART) regression, and random-forest
// regression, together with R² scoring, a train/test split, and
// Breiman impurity-based feature importance.
//
// All estimators implement Regressor. Inputs are dense [][]float64
// feature matrices; rows are samples. Estimators copy what they need, so
// callers may reuse buffers after Fit.
package ml

import (
	"errors"
	"fmt"
	"math"
)

// Regressor is a single-output regression estimator.
type Regressor interface {
	// Fit trains on X (n×d) and y (n). It returns an error for empty or
	// ragged input.
	Fit(X [][]float64, y []float64) error
	// Predict returns the estimate for one feature vector. Calling
	// Predict before a successful Fit panics.
	Predict(x []float64) float64
	// Name returns the estimator's display name (Table I row label).
	Name() string
}

// checkXY validates the common preconditions for Fit.
func checkXY(X [][]float64, y []float64) (n, d int, err error) {
	n = len(X)
	if n == 0 {
		return 0, 0, errors.New("ml: empty training set")
	}
	if len(y) != n {
		return 0, 0, fmt.Errorf("ml: len(y)=%d does not match len(X)=%d", len(y), n)
	}
	d = len(X[0])
	if d == 0 {
		return 0, 0, errors.New("ml: zero-width feature matrix")
	}
	for i, row := range X {
		if len(row) != d {
			return 0, 0, fmt.Errorf("ml: ragged row %d: %d features, want %d", i, len(row), d)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, 0, fmt.Errorf("ml: non-finite feature X[%d][%d]=%v", i, j, v)
			}
		}
	}
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, 0, fmt.Errorf("ml: non-finite target y[%d]=%v", i, v)
		}
	}
	return n, d, nil
}

// Standardizer rescales features to zero mean and unit variance, the
// usual preprocessing for KNN and for numerically stable linear solves.
type Standardizer struct {
	Mean, Std []float64
}

// FitStandardizer computes per-feature mean and standard deviation.
// Constant features get Std 1 so they map to 0.
func FitStandardizer(X [][]float64) *Standardizer {
	d := len(X[0])
	s := &Standardizer{Mean: make([]float64, d), Std: make([]float64, d)}
	n := float64(len(X))
	for _, row := range X {
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, row := range X {
		for j, v := range row {
			dv := v - s.Mean[j]
			s.Std[j] += dv * dv
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] == 0 {
			s.Std[j] = 1
		}
	}
	return s
}

// Transform returns a standardized copy of x.
func (s *Standardizer) Transform(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - s.Mean[j]) / s.Std[j]
	}
	return out
}

// TransformAll standardizes every row of X into a new matrix.
func (s *Standardizer) TransformAll(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		out[i] = s.Transform(row)
	}
	return out
}
