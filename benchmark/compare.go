package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
)

// compare prints, for each workload, one row per end-to-end metric of
// ledger a (the baseline) against ledger b (the change): both medians with
// their quartiles, the change of the median against the metric's bound,
// and a verdict. It reports whether any verdict is "worse".
func compare(pathA, pathB string, w io.Writer) (bool, error) {
	a, err := readLedger(pathA)
	if err != nil {
		return false, err
	}
	b, err := readLedger(pathB)
	if err != nil {
		return false, err
	}
	row := "%-20s %-12s %-36s %-36s %7s %6s  %s\n"
	fmt.Fprintf(w, row, "workload", "metric", "a: median [p25 p75]", "b: median [p25 p75]", "delta", "bound", "verdict")
	worse := false
	for _, wa := range a.Workloads {
		i := slices.IndexFunc(b.Workloads, func(r *workloadResult) bool { return r.Name == wa.Name })
		if i < 0 {
			fmt.Fprintf(w, "%-20s missing from %s\n", wa.Name, pathB)
			continue
		}
		wb := b.Workloads[i]
		for _, m := range endToEnd {
			sa, sb := wa.EndToEnd[m.name], wb.EndToEnd[m.name]
			v := verdict(sa, sb, m.bound)
			worse = worse || v == "worse"
			fmt.Fprintf(w, row, wa.Name, m.name, quartileText(sa), quartileText(sb),
				fmt.Sprintf("%+.1f%%", 100*ratio(sb.Median-sa.Median, sa.Median)),
				fmt.Sprintf("%.0f%%", 100*m.bound), v)
		}
		// Any increase in the failure ratio counts.
		fa := ratio(float64(wa.Failed), float64(wa.Attempted))
		fb := ratio(float64(wb.Failed), float64(wb.Attempted))
		v := "within"
		switch {
		case fb > fa:
			v, worse = "worse", true
		case fb < fa:
			v = "better"
		}
		fmt.Fprintf(w, row, wa.Name, "fail_ratio", fmt.Sprintf("%d/%d", wa.Failed, wa.Attempted),
			fmt.Sprintf("%d/%d", wb.Failed, wb.Attempted), "", "0", v)
	}
	return worse, nil
}

// verdict applies the no-regression rule to a lower-is-better metric. Where
// either side's spread is wider than the bound the difference cannot be
// told from noise, so the metric is unresolved unless every run of b reads
// better than every run of a.
func verdict(a, b stat, bound float64) string {
	if len(a.Values) == 0 || len(b.Values) == 0 {
		return "unresolved"
	}
	if max(a.spread(), b.spread()) > bound {
		if slices.Max(b.Values) < slices.Min(a.Values) {
			return "better"
		}
		return "unresolved"
	}
	switch d := ratio(b.Median-a.Median, a.Median); {
	case d > bound:
		return "worse"
	case d < -bound:
		return "better"
	}
	return "within"
}

func quartileText(s stat) string {
	return fmt.Sprintf("%.4g [%.4g %.4g] %s", s.Median, s.P25, s.P75, s.Unit)
}

func readLedger(path string) (*ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(l.Workloads) == 0 {
		return nil, errors.New(path + ": no workloads")
	}
	return &l, nil
}
