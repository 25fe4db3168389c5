package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"srcsim/internal/core"
	"srcsim/internal/devrun"
	"srcsim/internal/ml"
	"srcsim/internal/sim"
	"srcsim/internal/ssd"
	"srcsim/internal/trace"
	"srcsim/internal/workload"
)

// TableIRow is one estimator's accuracy (coefficient of determination).
type TableIRow struct {
	Model    string
	Accuracy float64
}

// TableI reproduces Table I: the five regression algorithms trained on
// micro-trace samples from SSD-A (60% train / 40% validation, the
// paper's split) and scored by R² averaged over the read and write
// outputs. count is the per-direction request count per sample run.
func TableI(cfg ssd.Config, count int, seed uint64) ([]TableIRow, error) {
	count = devrun.MinTrainCount(cfg, count)
	// The Fig. 5 grid plus randomly drawn workloads in between: the
	// paper trains on "extensive experiments with various workloads",
	// and instance-based estimators (KNN) need the continuous coverage.
	specs := devrun.DefaultGrid(count, seed)
	specs = append(specs, devrun.RandomSpecs(24, count, seed)...)
	samples, err := devrun.CollectSamples(cfg, specs,
		[]int{1, 2, 3, 4, 5, 6, 8}, 0)
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(seed ^ 0x7ab1e1)
	trainIdx, testIdx := ml.TrainTestSplit(len(samples), 0.6, rng)
	train := gather(samples, trainIdx)
	test := gather(samples, testIdx)

	var rows []TableIRow
	for _, factory := range ml.TableIRegressors(seed) {
		tpm := &core.TPM{NewRegressor: factory}
		if err := tpm.Train(train); err != nil {
			return nil, fmt.Errorf("harness: TableI %s: %w", factory().Name(), err)
		}
		rows = append(rows, TableIRow{
			Model:    factory().Name(),
			Accuracy: tpm.Accuracy(test),
		})
	}
	return rows, nil
}

func gather(samples []core.Sample, idx []int) []core.Sample {
	out := make([]core.Sample, len(idx))
	for i, ix := range idx {
		out[i] = samples[ix]
	}
	return out
}

// FprintTableI renders the regression-accuracy table.
func FprintTableI(w io.Writer, rows []TableIRow) {
	fmt.Fprintln(w, "Table I: regression accuracy (R²)")
	fmt.Fprintf(w, "%-26s %8s\n", "Model", "Accuracy")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %8.2f\n", r.Model, r.Accuracy)
	}
}

// TableIIIRow is one workload class's grouped cross-validation accuracy.
type TableIIIRow struct {
	Class    workload.SCVClass
	Accuracy float64
}

// TableIII reproduces Table III: a pool of synthetic (MMPP) workloads
// with continuously varying statistics is classified into the paper's
// four size-SCV × inter-arrival-SCV subsets; for each subset, the random
// forest is trained on all micro samples plus the other subsets'
// synthetic samples and validated on the held-out subset. This follows
// the paper's protocol ("classify the synthetic workloads... according
// to their spatial and temporal statistics"): the pool is a continuum,
// so each held-out class has near neighbours in training. totalTraces is
// the synthetic pool size.
func TableIII(cfg ssd.Config, count, totalTraces int, seed uint64) ([]TableIIIRow, error) {
	count = devrun.MinTrainCount(cfg, count)
	if totalTraces <= 0 {
		totalTraces = 24
	}
	// Micro samples form the training backbone (group 0 = micro).
	micro, err := devrun.CollectSamples(cfg, devrun.DefaultGrid(count, seed),
		[]int{1, 2, 4, 6, 8}, 0)
	if err != nil {
		return nil, err
	}
	all := micro

	// Classification thresholds splitting the continuum into the four
	// Table III subsets.
	const sizeSCVSplit, iaSCVSplit = 1.2, 2.2
	classify := func(sizeSCV, iaSCV float64) workload.SCVClass {
		switch {
		case sizeSCV < sizeSCVSplit && iaSCV < iaSCVSplit:
			return workload.LowSizeLowIA
		case sizeSCV < sizeSCVSplit:
			return workload.LowSizeHighIA
		case iaSCV < iaSCVSplit:
			return workload.HighSizeLowIA
		default:
			return workload.HighSizeHighIA
		}
	}

	rng := sim.NewRNG(seed ^ 0x7ab1e3)
	for t := 0; t < totalTraces; t++ {
		sizeSCV := 0.2 + rng.Float64()*4.0
		iaSCV := 1.0 + rng.Float64()*4.0
		acf := 0.0
		if iaSCV > 1.1 {
			acf = rng.Float64() * 0.3
		}
		meanIA := sim.Time(10+rng.Intn(16)) * sim.Microsecond
		meanSize := (10 + rng.Intn(31)) << 10
		class := classify(sizeSCV, iaSCV)

		tr, err := workload.Synthetic(workload.SyntheticConfig{
			Seed:      seed + uint64(t)*7919,
			ReadCount: count, WriteCount: count,
			ReadInterArrival: meanIA, WriteInterArrival: meanIA,
			ReadInterArrivalSCV: iaSCV, WriteInterArrivalSCV: iaSCV,
			ReadACF1: acf, WriteACF1: acf,
			ReadMeanSize: meanSize, WriteMeanSize: meanSize,
			ReadSizeSCV: sizeSCV, WriteSizeSCV: sizeSCV,
		})
		if err != nil {
			return nil, fmt.Errorf("harness: TableIII trace %d: %w", t, err)
		}
		samples, err := devrun.CollectSamplesFromTraces(cfg, []*trace.Trace{tr},
			[]int{1, 2, 4, 6, 8}, int(class)+1)
		if err != nil {
			return nil, err
		}
		all = append(all, samples...)
	}

	var rows []TableIIIRow
	for ci, class := range workload.SCVClasses {
		group := ci + 1
		var train, test []core.Sample
		for _, s := range all {
			if s.Group == group {
				test = append(test, s)
			} else {
				train = append(train, s)
			}
		}
		if len(test) == 0 {
			rows = append(rows, TableIIIRow{Class: class, Accuracy: math.NaN()})
			continue
		}
		tpm := core.NewTPM()
		if err := tpm.Train(train); err != nil {
			return nil, err
		}
		rows = append(rows, TableIIIRow{Class: class, Accuracy: tpm.Accuracy(test)})
	}
	return rows, nil
}

// FprintTableIII renders the grouped cross-validation table.
func FprintTableIII(w io.Writer, rows []TableIIIRow) {
	fmt.Fprintln(w, "Table III: cross-validation accuracy (Random Forest, R²)")
	fmt.Fprintf(w, "%-42s %8s\n", "Data Subset", "Accuracy")
	for _, r := range rows {
		fmt.Fprintf(w, "%-42s %8.2f\n", r.Class, r.Accuracy)
	}
}

// MarshalJSON encodes a held-out class without samples (NaN accuracy,
// which encoding/json rejects) as a null accuracy.
func (r TableIIIRow) MarshalJSON() ([]byte, error) {
	var acc *float64
	if !math.IsNaN(r.Accuracy) {
		acc = &r.Accuracy
	}
	return json.Marshal(struct {
		Class    workload.SCVClass
		Accuracy *float64
	}{r.Class, acc})
}

// Importance is a trained TPM's Breiman feature importances (Sec. III-B
// reports arrival flow speed at 0.39), in feature-vector order.
type Importance struct {
	Samples  int       `json:"samples"`
	Features []string  `json:"features"`
	Weights  []float64 `json:"weights"`
}

// FeatureImportance trains the paper's TPM on cfg and reports its
// feature importances. count is the per-direction request count per
// training run.
func FeatureImportance(cfg ssd.Config, count int, seed uint64) (*Importance, error) {
	tpm, samples, err := devrun.TrainTPM(cfg, count, seed)
	if err != nil {
		return nil, err
	}
	names, weights, ok := tpm.FeatureImportances()
	if !ok {
		return nil, fmt.Errorf("harness: TPM regressor reports no feature importances")
	}
	return &Importance{Samples: len(samples), Features: names, Weights: weights}, nil
}

// FprintImportance renders the feature-importance report.
func FprintImportance(w io.Writer, imp *Importance) {
	fmt.Fprintf(w, "Breiman feature importances (%d training samples):\n", imp.Samples)
	for i, n := range imp.Features {
		fmt.Fprintf(w, "  %-28s %.3f\n", n, imp.Weights[i])
	}
}

// trainParams parses the ssd/count/seed parameters shared by the
// experiments that collect their own device samples.
func trainParams(p Params) (cfg ssd.Config, count int, seed uint64, err error) {
	if cfg, err = ParseSSD(p["ssd"]); err != nil {
		return
	}
	if count, err = p.Int("count"); err != nil {
		return
	}
	seed, err = p.Uint64("seed")
	return
}

// The TPM-accuracy experiments train their own models on one Table II
// device, so they declare no shared TPM. Tables I and III end in a
// blank line, separating them when the three print back to back.
func init() {
	params := func(extra ...Param) []Param {
		return append([]Param{
			{Name: "ssd", Default: "A", Help: "Table II device: A, B, or C"},
			{Name: "count", Default: "2500", Help: "requests per direction per training run"},
			{Name: "seed", Default: "1", Help: "workload seed"},
		}, extra...)
	}

	register(&Experiment{
		Name:   "table1",
		Title:  "TPM regression accuracy of five estimators (R²)",
		Params: params(),
		Run: func(env *Env, p Params) (*Output, error) {
			cfg, count, seed, err := trainParams(p)
			if err != nil {
				return nil, err
			}
			rows, err := TableI(cfg, count, seed)
			if err != nil {
				return nil, err
			}
			text := render(func(w io.Writer) {
				FprintTableI(w, rows)
				fmt.Fprintln(w)
			})
			return &Output{Text: text, Data: rows}, nil
		},
	})

	register(&Experiment{
		Name:   "table3",
		Title:  "TPM grouped cross-validation by workload SCV class (Random Forest, R²)",
		Params: params(Param{Name: "traces", Default: "24", Help: "synthetic workload pool size"}),
		Run: func(env *Env, p Params) (*Output, error) {
			cfg, count, seed, err := trainParams(p)
			if err != nil {
				return nil, err
			}
			traces, err := p.Int("traces")
			if err != nil {
				return nil, err
			}
			rows, err := TableIII(cfg, count, traces, seed)
			if err != nil {
				return nil, err
			}
			text := render(func(w io.Writer) {
				FprintTableIII(w, rows)
				fmt.Fprintln(w)
			})
			return &Output{Text: text, Data: rows}, nil
		},
	})

	register(&Experiment{
		Name:   "tpm-importance",
		Title:  "TPM Breiman feature importances (Sec. III-B)",
		Params: params(),
		Run: func(env *Env, p Params) (*Output, error) {
			cfg, count, seed, err := trainParams(p)
			if err != nil {
				return nil, err
			}
			imp, err := FeatureImportance(cfg, count, seed)
			if err != nil {
				return nil, err
			}
			return &Output{Text: render(func(w io.Writer) { FprintImportance(w, imp) }), Data: imp}, nil
		},
	})
}
