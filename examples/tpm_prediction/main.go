// tpm_prediction shows the throughput prediction model on its own:
// collect training samples from the SSD simulator, fit the paper's five
// regressors, compare their accuracy (Table I style), query the chosen
// random forest across weight ratios, and report feature importances.
//
// Run with: go run ./examples/tpm_prediction
package main

import (
	"fmt"
	"log"

	"srcsim/internal/core"
	"srcsim/internal/devrun"
	"srcsim/internal/ml"
	"srcsim/internal/sim"
	"srcsim/internal/ssd"
)

func main() {
	log.SetFlags(0)

	cfg := ssd.ConfigA()
	fmt.Printf("collecting training samples on %s...\n", cfg.Name)
	samples, err := devrun.CollectSamples(cfg,
		devrun.DefaultGrid(devrun.MinTrainCount(cfg, 0), 1),
		[]int{1, 2, 3, 4, 5, 6, 8}, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d samples\n\n", len(samples))

	// Compare estimators on a held-out split.
	rng := sim.NewRNG(99)
	trainIdx, testIdx := ml.TrainTestSplit(len(samples), 0.6, rng)
	train := make([]core.Sample, len(trainIdx))
	test := make([]core.Sample, len(testIdx))
	for i, ix := range trainIdx {
		train[i] = samples[ix]
	}
	for i, ix := range testIdx {
		test[i] = samples[ix]
	}

	fmt.Println("estimator accuracy (R², 60/40 split):")
	for _, factory := range ml.TableIRegressors(1) {
		tpm := &core.TPM{NewRegressor: factory}
		if err := tpm.Train(train); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-26s %.3f\n", factory().Name(), tpm.Accuracy(test))
	}

	// The production model: random forest, queried across weight ratios
	// for one heavy workload.
	tpm := core.NewTPM()
	if err := tpm.Train(samples); err != nil {
		log.Fatal(err)
	}
	var heavy core.Sample
	for _, s := range samples {
		if s.W == 1 && s.TputR > heavy.TputR {
			heavy = s
		}
	}
	fmt.Println("\npredicted throughput vs weight ratio (heaviest workload):")
	for w := 1; w <= 8; w++ {
		r, wr := tpm.Predict(heavy.Ch, float64(w))
		fmt.Printf("  w=%d: read %5.2f Gbps, write %5.2f Gbps\n", w, r/1e9, wr/1e9)
	}

	names, weights, ok := tpm.FeatureImportances()
	if ok {
		fmt.Println("\nfeature importances:")
		for _, i := range ml.RankFeatures(weights) {
			if weights[i] < 0.01 {
				continue
			}
			fmt.Printf("  %-28s %.3f\n", names[i], weights[i])
		}
	}
}
