package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"srcsim/internal/ctrlplane"
)

// TestResultSummaryJSON pins the summary's JSON form: the key order and
// encoding of every field, omitempty keys included. Digests,
// perfbench's reference hashes and the sweep cache all hash these bytes.
func TestResultSummaryJSON(t *testing.T) {
	c, err := New(congestionSpec())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(vdiTrace(t, 300), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadLatencyP50Ms <= 0 || res.ReadLatencyP99Ms < res.ReadLatencyP50Ms {
		t.Fatalf("latency summary %+v", res.Summary)
	}
	b, err := json.Marshal(res.Summary)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, []byte(`{"mode":"DCQCN-Only","duration_ms":`)) {
		t.Fatalf("run summary JSON: %s", b)
	}

	sum := Summary{
		Mode: DCQCNSRC, DurationMs: 12.5,
		MeanReadGbps: 10.25, MeanWriteGbps: 5.5, AggregatedGbps: 15.75,
		Completed: 90, Submitted: 100, TotalCNPs: 7, TotalECNMarks: 8, TotalPFCPauses: 9,
		ReadLatencyP50Ms: 0.5, ReadLatencyP99Ms: 1.5, WriteLatencyP50Ms: 0.25, WriteLatencyP99Ms: 2.5,
		WeightEventCount: 3,
		Truncated:        true, TruncateReason: "signal: interrupt",
		Failed: 10, FaultsInjected: 11, Retries: 12, Timeouts: 13, StaleResponses: 14,
		DupsDropped: 15, DroppedPackets: 16, CorruptedPackets: 17, RouteDrops: 18,
		WatchdogTrips: 19, ForcedPauses: 20, LinkDowns: 21,
		Ladder:   []LadderStep{{Target: 1, AtMs: 2.5, From: "Predictive", To: "Static", Reason: "telemetry-stale"}},
		Retrains: 22, Promotions: 23, Rejections: 24, AdaptRecovered: true, AdaptRecoverMs: 3.75,
		Ctrl: &ctrlplane.Ledger{Epoch: 2, Sent: 25, Delivered: 26},
	}
	v := reflect.ValueOf(sum)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("Summary.%s is unset, so its key is not pinned", v.Type().Field(i).Name)
		}
	}
	got, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"mode":"DCQCN-SRC","duration_ms":12.5,` +
		`"read_gbps":10.25,"write_gbps":5.5,"aggregated_gbps":15.75,` +
		`"completed":90,"submitted":100,"cnps":7,"ecn_marks":8,"pfc_pauses":9,` +
		`"read_latency_p50_ms":0.5,"read_latency_p99_ms":1.5,` +
		`"write_latency_p50_ms":0.25,"write_latency_p99_ms":2.5,"weight_events":3,` +
		`"truncated":true,"truncate_reason":"signal: interrupt",` +
		`"failed":10,"faults_injected":11,"retries":12,"timeouts":13,"stale_responses":14,` +
		`"dups_dropped":15,"dropped_packets":16,"corrupted_packets":17,"route_drops":18,` +
		`"watchdog_trips":19,"forced_pauses":20,"link_downs":21,` +
		`"ladder":[{"target":1,"at_ms":2.5,"from":"Predictive","to":"Static","reason":"telemetry-stale"}],` +
		`"adapt_retrains":22,"adapt_promotions":23,"adapt_rejections":24,` +
		`"adapt_recovered":true,"adapt_recover_ms":3.75,` +
		`"ctrl":{"epoch":2,"sent":25,"delivered":26}}`
	if string(got) != want {
		t.Fatalf("summary JSON\n got: %s\nwant: %s", got, want)
	}
}
