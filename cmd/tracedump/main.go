// Command tracedump decodes and inspects a binary HawkSet trace file
// captured with `hawkset -trace-out`. It reads format v2, the only format
// the tools write; any other version is an error.
//
// Usage:
//
//	tracedump trace.hwkt            # summary
//	tracedump -events trace.hwkt   # full event listing with sites
//	tracedump -head 50 trace.hwkt  # first 50 events
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"hawkset/internal/trace"
)

func main() {
	var (
		events = flag.Bool("events", false, "print every event")
		head   = flag.Int("head", 0, "print only the first N events")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracedump [-events|-head N] <trace file>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	dec, err := trace.NewDecoder(f)
	if err != nil {
		fatal(err)
	}

	// One streaming pass: summary counters always, event lines only while
	// below the -head/-events cutoff. The trace is never held in memory.
	listing := *events || *head > 0
	counts := make(map[trace.Kind]int)
	threads := make(map[int32]struct{})
	nevents := 0
	for {
		e, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal(err)
		}
		if listing && (*head <= 0 || nevents < *head) {
			fmt.Printf("%7d %-40s %s\n", nevents, e.String(), dec.Sites().Lookup(e.Site))
		}
		counts[e.Kind]++
		nevents++
		threads[e.TID] = struct{}{}
		if e.Kind == trace.KThreadCreate || e.Kind == trace.KThreadJoin {
			threads[e.Kid] = struct{}{}
		}
	}

	if listing {
		fmt.Println()
	}
	fmt.Printf("trace: %d events, %d threads, %d sites\n",
		nevents, len(threads), dec.Sites().Len()-1)
	kinds := make([]trace.Kind, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		fmt.Printf("  %-8s %d\n", k, counts[k])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracedump:", err)
	os.Exit(1)
}
