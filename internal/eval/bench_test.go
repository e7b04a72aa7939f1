package eval

import (
	"fmt"
	"testing"

	"ptrack/internal/gaitid"
)

// BenchmarkAccuracy reports the paper's headline numbers at the default
// Options as benchmark metrics, so `make bench-accuracy` can pin them in
// BENCH_accuracy.json with exact -min/-max gates. Every experiment is
// seeded, so any movement is a behaviour change, not noise. Run it with
// -benchtime 1x: the metrics describe one evaluation, not a rate.
func BenchmarkAccuracy(b *testing.B) {
	opt := Options{}
	var (
		f6a *Fig6aResult
		f6b *Fig6bResult
		f7a *Fig7aResult
		f7b *Fig7bResult
		f8a *Fig8aResult
		f8b *Fig8bResult
		deg *DegradationResult
	)
	for i := 0; i < b.N; i++ {
		_, f6a = Fig6aAccuracy(opt)
		_, f6b = Fig6bBreakdown(opt)
		_, f7a = Fig7aInterference(opt)
		_, f7b = Fig7bSpoof(opt)
		_, f8a = Fig8aStrideCDF(opt)
		_, f8b = Fig8bSelfTraining(opt)
		_, deg = DegradationSweep(opt)
	}
	for _, sc := range scenarioOrder {
		b.ReportMetric(f6a.Accuracy[sc]["PTrack"], "6a-"+sc+"-acc")
		for _, l := range []gaitid.Label{gaitid.LabelWalking, gaitid.LabelStepping, gaitid.LabelInterference} {
			b.ReportMetric(f6b.Percent[sc][l], "6b-"+sc+"-"+l.String()+"-pct")
		}
	}
	for _, a := range fig7Activities {
		b.ReportMetric(float64(f7a.Miscounts[a]["PTrack"]), "7a-"+a.String()+"-steps")
	}
	b.ReportMetric(float64(f7b.Counts["PTrack"]), "7b-spoof-steps")
	for _, row := range []struct {
		name string
		errs []float64
	}{
		{"8a-ptrack", f8a.PTrackErrors},
		{"8b-auto", f8b.AutomaticErrors},
		{"8b-manual", f8b.ManualErrors},
	} {
		mean, med, p90 := cdfSummary(row.errs)
		b.ReportMetric(mean, row.name+"-mean-m")
		b.ReportMetric(med, row.name+"-median-m")
		b.ReportMetric(p90, row.name+"-p90-m")
	}
	for _, pt := range deg.Points {
		b.ReportMetric(pt.ConditionedErrPct, fmt.Sprintf("degrade-%g-cond-err-pct", pt.Severity))
	}
	// Suppress the wall-time metric: the snapshot holds only the seeded
	// accuracy numbers, so regenerating it on one host is byte-stable.
	b.ReportMetric(0, "ns/op")
}
