package main

import (
	"fmt"
	"math"
)

// Verdicts for one end-to-end metric on one workload.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// comparison is one workload × metric row of a comparison between a base
// record A and a changed record B.
type comparison struct {
	workload string
	metric   specMetric
	a, b     summary
	worse    float64 // share by which B's value is worse than A's (negative: better)
	verdict  string  // "" for per-layer metrics, which have no bound
}

// judge applies the benchmark's rule: a change whose reported value is
// worse by more than the bound is a regression. When either side's spread
// exceeds the bound the values cannot resolve it, and the metric is
// unresolved — unless every sample of B is better than every sample of A.
func judge(m specMetric, a, b summary) (worse float64, verdict string) {
	switch {
	case a.Value == 0 && b.Value == 0:
		worse = 0
	case a.Value == 0:
		worse = math.Inf(1)
	default:
		worse = (b.Value - a.Value) / math.Abs(a.Value)
	}
	if m.Better == "higher" {
		worse = -worse
	}
	if m.Bound == nil {
		return worse, ""
	}
	bound := *m.Bound
	switch {
	case math.Max(a.Spread, b.Spread) > bound:
		if allBetter(m, a.Samples, b.Samples) {
			return worse, verdictBetter
		}
		return worse, verdictUnresolved
	case worse > bound:
		return worse, verdictRegression
	case worse < -bound:
		return worse, verdictBetter
	}
	return worse, verdictOK
}

// allBetter reports whether every sample of b beats every sample of a.
func allBetter(m specMetric, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if (m.Better == "lower" && !(y < x)) || (m.Better == "higher" && !(y > x)) {
				return false
			}
		}
	}
	return true
}

// compareRecords pairs every workload and metric present in both records.
func compareRecords(s *spec, a, b record) []comparison {
	var rows []comparison
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			continue
		}
		for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
			sa, okA := wa.Metrics[m.Name]
			sb, okB := wb.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			worse, verdict := judge(m, sa, sb)
			rows = append(rows, comparison{workload: wa.Name, metric: m, a: sa, b: sb, worse: worse, verdict: verdict})
		}
	}
	return rows
}

// compareFiles prints the comparison of two records and reports whether
// any end-to-end metric regressed. Records from different machines are
// compared but never gated.
func compareFiles(s *spec, pathA, pathB string) (regressed bool, err error) {
	a, err := readRecord(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecord(pathB)
	if err != nil {
		return false, err
	}
	same := a.Host.sameMachine(b.Host)
	if !same {
		logx.Warnf("cross-host comparison, not gated: A %+v, B %+v", a.Host, b.Host)
	}
	rows := compareRecords(s, a, b)
	if len(rows) == 0 {
		return false, fmt.Errorf("%s and %s share no workload and metric", pathA, pathB)
	}
	for _, r := range rows {
		bound := "-"
		if r.metric.Bound != nil {
			bound = fmt.Sprintf("%.0f%%", 100**r.metric.Bound)
		}
		logx.Infof("%-12s %-24s %-6s A %-11.5g [%-11.5g %-11.5g] B %-11.5g [%-11.5g %-11.5g] worse %+7.2f%% spread %5.1f%%/%5.1f%% bound %-4s %s",
			r.workload, r.metric.Name, r.metric.Unit, r.a.Value, r.a.Q1, r.a.Q3, r.b.Value, r.b.Q1, r.b.Q3,
			100*r.worse, 100*r.a.Spread, 100*r.b.Spread, bound, r.verdict)
		regressed = regressed || (same && r.verdict == verdictRegression)
	}
	return regressed, nil
}
