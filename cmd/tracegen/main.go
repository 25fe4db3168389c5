// Command tracegen generates and inspects I/O workload traces: the
// paper's micro traces (exponential inter-arrival and size), synthetic
// MMPP traces fit to target statistics, and the VDI/CBS-like presets.
// Traces are written as CSV or as the open JSONL trace format (see
// internal/trace) for replay or external analysis; -inspect prints the
// feature statistics of an existing trace.
//
// Usage:
//
//	tracegen -kind micro -count 5000 -ia 10us -size 32768 -o trace.csv
//	tracegen -kind synthetic -ia-scv 4 -acf 0.2 -size-scv 2 -o bursty.csv
//	tracegen -kind vdi -count 5000 -format jsonl -o vdi.jsonl
//	tracegen -inspect trace.csv
//	tracegen -inspect msr_trace.csv -format msr
//	tracegen -inspect vdi.jsonl -format jsonl
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"srcsim/internal/sim"
	"srcsim/internal/trace"
	"srcsim/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")

	kind := flag.String("kind", "micro", "micro | synthetic | vdi | cbs")
	count := flag.Int("count", 5000, "requests per direction")
	ia := flag.Duration("ia", 10*time.Microsecond, "mean inter-arrival per direction")
	size := flag.Int("size", 32<<10, "mean request size in bytes")
	iaSCV := flag.Float64("ia-scv", 4.0, "inter-arrival SCV (synthetic)")
	sizeSCV := flag.Float64("size-scv", 2.0, "request-size SCV (synthetic)")
	acf := flag.Float64("acf", 0.2, "inter-arrival lag-1 autocorrelation (synthetic)")
	seed := flag.Uint64("seed", 1, "generator seed")
	out := flag.String("o", "", "output CSV path (default stdout)")
	inspect := flag.String("inspect", "", "print statistics of an existing trace file and exit")
	format := flag.String("format", "csv", "trace encoding: csv | jsonl (open trace format) when generating; csv | msr (MSR Cambridge / SNIA) | jsonl when inspecting")
	flag.Parse()

	if *inspect != "" {
		tr, err := trace.ReadFile(*inspect, *format)
		if err != nil {
			log.Fatal(err)
		}
		s := trace.Extract(tr)
		fmt.Printf("%s\n", s)
		fmt.Printf("read:  n=%d meanSize=%.0fB sizeSCV=%.2f meanIA=%.1fus iaSCV=%.2f acf1=%.2f flow=%.2f MB/s\n",
			s.Read.Count, s.Read.MeanSize, s.Read.SizeSCV,
			s.Read.MeanInterArrival/1000, s.Read.InterArrivalSCV, s.Read.InterArrivalACF1,
			s.Read.FlowSpeed/1e6)
		fmt.Printf("write: n=%d meanSize=%.0fB sizeSCV=%.2f meanIA=%.1fus iaSCV=%.2f acf1=%.2f flow=%.2f MB/s\n",
			s.Write.Count, s.Write.MeanSize, s.Write.SizeSCV,
			s.Write.MeanInterArrival/1000, s.Write.InterArrivalSCV, s.Write.InterArrivalACF1,
			s.Write.FlowSpeed/1e6)
		return
	}

	write, err := trace.Encoder(*format)
	if err != nil {
		log.Fatal(err)
	}

	tr, err := buildTrace(*kind, *seed, *count, sim.Time(ia.Nanoseconds()), *size, *iaSCV, *sizeSCV, *acf)
	if err != nil {
		log.Fatal(err)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}
	if err := write(w, tr); err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "wrote %d requests (%s) to %s\n", tr.Len(), tr.Duration(), *out)
	}
}

// buildTrace generates the requested trace kind with the shared knobs;
// kinds that don't use a knob ignore it (vdi/cbs take only seed+count).
func buildTrace(kind string, seed uint64, count int, meanIA sim.Time, size int, iaSCV, sizeSCV, acf float64) (*trace.Trace, error) {
	switch kind {
	case "micro":
		return workload.Micro(workload.MicroConfig{
			Seed:      seed,
			ReadCount: count, WriteCount: count,
			ReadInterArrival: meanIA, WriteInterArrival: meanIA,
			ReadMeanSize: size, WriteMeanSize: size,
		})
	case "synthetic":
		return workload.Synthetic(workload.SyntheticConfig{
			Seed:      seed,
			ReadCount: count, WriteCount: count,
			ReadInterArrival: meanIA, WriteInterArrival: meanIA,
			ReadInterArrivalSCV: iaSCV, WriteInterArrivalSCV: iaSCV,
			ReadACF1: acf, WriteACF1: acf,
			ReadMeanSize: size, WriteMeanSize: size,
			ReadSizeSCV: sizeSCV, WriteSizeSCV: sizeSCV,
		})
	case "vdi":
		return workload.VDILike(seed, count)
	case "cbs":
		return workload.CBSLike(seed, count)
	default:
		return nil, fmt.Errorf("unknown kind %q", kind)
	}
}
