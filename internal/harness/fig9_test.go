package harness

import (
	"testing"

	"srcsim/internal/sim"
)

func TestParseEvents(t *testing.T) {
	evs, err := parseEvents("60:6,100:3.5,180:10")
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Fatalf("parsed %d events", len(evs))
	}
	if evs[0].At != 60*sim.Millisecond || evs[0].DemandGbps != 6 {
		t.Fatalf("first event %+v", evs[0])
	}
	if evs[1].At != 100*sim.Millisecond || evs[1].DemandGbps != 3.5 {
		t.Fatalf("second event %+v", evs[1])
	}
}

func TestParseEventsEmpty(t *testing.T) {
	evs, err := parseEvents("")
	if err != nil || evs != nil {
		t.Fatalf("empty spec: %v %v", evs, err)
	}
}

func TestParseEventsErrors(t *testing.T) {
	for _, bad := range []string{"60", "x:6", "60:y", "60:6,bad"} {
		if _, err := parseEvents(bad); err == nil {
			t.Errorf("%q should fail", bad)
		}
	}
}
