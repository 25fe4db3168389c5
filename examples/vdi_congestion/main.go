// vdi_congestion reproduces the paper's Sec. IV-D scenario end to end
// and dumps the runtime timelines: per-millisecond read/write throughput
// (Fig. 7) and pause numbers (Fig. 8) under DCQCN-only and DCQCN-SRC,
// plus the SRC weight-adjustment log.
//
// Run with: go run ./examples/vdi_congestion
package main

import (
	"fmt"
	"log"
	"os"

	"srcsim/internal/harness"
	"srcsim/internal/netsim"
)

func main() {
	log.SetFlags(0)

	fmt.Fprintln(os.Stderr, "training TPM...")
	tpm, _, err := harness.TrainCongestionTPM(1500, 42)
	if err != nil {
		log.Fatal(err)
	}

	res, err := harness.Fig7Throughput(tpm, 2000, 7, netsim.CCDCQCN)
	if err != nil {
		log.Fatal(err)
	}

	harness.FprintFig7(os.Stdout, res)
	fmt.Println()
	harness.FprintFig8(os.Stdout, res)

	fmt.Println("\nSRC weight adjustments (first 12):")
	for i, e := range res.SRC.WeightEvents {
		if i == 12 {
			fmt.Printf("  ... %d more\n", len(res.SRC.WeightEvents)-12)
			break
		}
		fmt.Printf("  t=%-10v demanded %5.2f Gbps -> w=%d (predicted read %.2f Gbps)\n",
			e.At, e.DemandedBps/1e9, e.WeightRatio, e.PredictedRBp/1e9)
	}
}
