package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"srcsim/internal/cluster"
	"srcsim/internal/netsim"
	"srcsim/internal/obs/timeseries"
	"srcsim/internal/sim"
)

// TestFlightRecorderFig7 drives the flight recorder through the paper's
// Fig. 7 congestion scenario at a 10µs sample period and asserts three
// things: (1) attaching a recorder changes no result bytes, (2) the
// recorded timeline actually shows the congestion-onset episode — queue
// build-up at the congested switch port, DCQCN rate cuts, ECN marking —
// and (3) the recorder's CSV export is deterministic across runs.
func TestFlightRecorderFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig7 three times; skipped with -short")
	}
	tpmCong, _ := testTPMs(t)

	digest := func(r *CongestionResult) []byte {
		b, err := json.Marshal([]cluster.Digest{r.Baseline.Digest(), r.SRC.Digest()})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	plain, err := Fig7Throughput(tpmCong, 250, 7, netsim.CCDCQCN)
	if err != nil {
		t.Fatal(err)
	}

	record := func() (*CongestionResult, *timeseries.Recorder) {
		// One recorder shared across both CompareModes runs: tracks are
		// mode-prefixed, so the two runs' timelines stay distinct.
		rec := timeseries.New(10*sim.Microsecond, 1<<14)
		res, err := Fig7Throughput(tpmCong, 250, 7, netsim.CCDCQCN, func(s *cluster.Spec) {
			s.Recorder = rec
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, rec
	}
	recorded, rec := record()

	if !bytes.Equal(digest(plain), digest(recorded)) {
		t.Fatal("attaching the flight recorder changed run results")
	}

	// The congestion-onset episode: find queue growth, rate cuts below
	// the 10 Gbps line rate, and ECN mark activity in the recorded
	// series. Both modes must be present under their own tracks.
	dump := rec.Dump(0)
	var sawQueue, sawRateCut, sawECN, sawBase, sawSRC bool
	for _, s := range dump {
		if strings.HasPrefix(s.Track, "DCQCN-Only/") {
			sawBase = true
		}
		if strings.HasPrefix(s.Track, "DCQCN-SRC/") {
			sawSRC = true
		}
		switch {
		case s.Name == "switch_queue_bytes_total":
			for _, v := range s.V {
				if v > 64<<10 { // queue beyond one 64 KiB command's worth
					sawQueue = true
				}
			}
		case strings.HasPrefix(s.Name, "flow_rate_gbps{"):
			for _, v := range s.V {
				if v < 9 {
					sawRateCut = true
				}
			}
		case s.Name == "ecn_marks":
			if len(s.V) > 0 {
				sawECN = true
			}
		}
	}
	if !sawBase || !sawSRC {
		t.Fatalf("missing per-mode tracks: base=%v src=%v", sawBase, sawSRC)
	}
	if !sawQueue || !sawRateCut || !sawECN {
		t.Fatalf("congestion onset not captured: queue=%v rateCut=%v ecn=%v",
			sawQueue, sawRateCut, sawECN)
	}

	// CSV export is deterministic: a second recorded run produces the
	// same bytes.
	_, rec2 := record()
	var csv1, csv2 bytes.Buffer
	if err := rec.WriteCSV(&csv1); err != nil {
		t.Fatal(err)
	}
	if err := rec2.WriteCSV(&csv2); err != nil {
		t.Fatal(err)
	}
	if csv1.Len() == 0 {
		t.Fatal("empty recorder CSV")
	}
	if !bytes.Equal(csv1.Bytes(), csv2.Bytes()) {
		t.Fatal("recorder CSV not deterministic across identical runs")
	}
}
