package eval

import (
	"fmt"
	"math/rand"

	"ptrack/internal/baseline"
	"ptrack/internal/core"
	"ptrack/internal/gaitsim"
	"ptrack/internal/selftrain"
	"ptrack/internal/stride"
	"ptrack/internal/trace"
)

// Fig8aResult reproduces Fig. 8(a): per-step stride error of PTrack vs
// Montage applied to the wrist.
type Fig8aResult struct {
	PTrackErrors  []float64 // per-step |error|, metres
	MontageErrors []float64
}

// Fig8bResult reproduces Fig. 8(b): PTrack with the self-trained profile
// vs the manually measured profile.
type Fig8bResult struct {
	AutomaticErrors []float64
	ManualErrors    []float64
}

// calibrationScript is the initialization-phase recording: natural
// walking with stepping interludes, over a known distance.
func calibrationScript(duration float64) []gaitsim.Segment {
	leg := duration / 6
	return []gaitsim.Segment{
		{Activity: trace.ActivityWalking, Duration: 2 * leg},
		{Activity: trace.ActivityStepping, Duration: leg},
		{Activity: trace.ActivityWalking, Duration: 2 * leg},
		{Activity: trace.ActivityStepping, Duration: leg},
	}
}

// userProfiles builds, per user, the automatic (self-trained) and manual
// (tape-measured with small user error) stride configurations, both with
// the initialization-phase k calibration the paper applies.
func userProfiles(p gaitsim.Profile, seed int64, scale float64) (auto, manual stride.Config, err error) {
	cal := mustSimulate(p, simCfg(seed), calibrationScript(180*scale))

	auto, _, err = selftrain.Train(cal.Trace, cal.Truth.Distance)
	if err != nil {
		return auto, manual, fmt.Errorf("self-training: %w", err)
	}

	// Manual measurement: correct up to the few-centimetre error an
	// inexperienced user makes with a tape measure (§II: "measurement
	// errors made by inexperienced users").
	rng := rand.New(rand.NewSource(seed + 1))
	manual = stride.Config{
		ArmLength: p.ArmLength + rng.NormFloat64()*0.02,
		LegLength: p.LegLength + rng.NormFloat64()*0.03,
		K:         2.35,
	}
	k, kerr := selftrain.CalibrateK(cal.Trace, manual, cal.Truth.Distance)
	if kerr != nil {
		return auto, manual, fmt.Errorf("manual k calibration: %w", kerr)
	}
	manual.K = k
	return auto, manual, nil
}

// strideErrors runs the PTrack pipeline with the given profile over a
// recording and returns the matched per-step errors.
func strideErrors(rec *trace.Recording, cfg stride.Config) []float64 {
	res, err := core.Process(rec.Trace, core.Config{Profile: &cfg})
	if err != nil {
		panic(fmt.Sprintf("eval: %v", err))
	}
	return matchStrides(res.StepLog, rec.Truth.Steps, 1.2)
}

// Fig8aStrideCDF runs the PTrack-vs-Montage stride comparison.
func Fig8aStrideCDF(opt Options) (*Table, *Fig8aResult) {
	opt = opt.withDefaults()
	duration := 120 * opt.DurationScale
	res := &Fig8aResult{}
	for ui, p := range Profiles(opt.Users, opt.Seed) {
		auto, _, err := userProfiles(p, opt.Seed+int64(5000+10*ui), opt.DurationScale)
		if err != nil {
			panic(fmt.Sprintf("eval: user %d: %v", ui, err))
		}
		rec := mustActivity(p, simCfg(opt.Seed+int64(5100+ui)), trace.ActivityWalking, duration)
		res.PTrackErrors = append(res.PTrackErrors, strideErrors(rec, auto)...)

		mnt := baseline.MontageStride(rec.Trace, baseline.StrideConfig{LegLength: p.LegLength})
		res.MontageErrors = append(res.MontageErrors, matchStridesFlat(mnt, rec.Truth.Steps)...)
	}

	tbl := &Table{
		Title:  "Fig.8(a) Per-step stride error on the wrist (m)",
		Header: []string{"approach", "mean", "median", "p90", "steps"},
	}
	for _, row := range []struct {
		name string
		errs []float64
	}{
		{"PTrack", res.PTrackErrors},
		{"Mtage", res.MontageErrors},
	} {
		mean, med, p90 := cdfSummary(row.errs)
		tbl.Rows = append(tbl.Rows, []string{row.name, f3(mean), f3(med), f3(p90), d0(len(row.errs))})
	}
	tbl.Notes = append(tbl.Notes, "paper: PTrack ~5 cm per step on average; Montage deteriorates on wearables")
	return tbl, res
}

// Fig8bSelfTraining runs the automatic-vs-manual profile comparison.
func Fig8bSelfTraining(opt Options) (*Table, *Fig8bResult) {
	opt = opt.withDefaults()
	duration := 120 * opt.DurationScale
	res := &Fig8bResult{}
	for ui, p := range Profiles(opt.Users, opt.Seed) {
		auto, manual, err := userProfiles(p, opt.Seed+int64(6000+10*ui), opt.DurationScale)
		if err != nil {
			panic(fmt.Sprintf("eval: user %d: %v", ui, err))
		}
		rec := mustActivity(p, simCfg(opt.Seed+int64(6100+ui)), trace.ActivityWalking, duration)
		res.AutomaticErrors = append(res.AutomaticErrors, strideErrors(rec, auto)...)
		res.ManualErrors = append(res.ManualErrors, strideErrors(rec, manual)...)
	}

	tbl := &Table{
		Title:  "Fig.8(b) PTrack stride error: self-trained vs manual profile (m)",
		Header: []string{"profile", "mean", "median", "p90", "steps"},
	}
	for _, row := range []struct {
		name string
		errs []float64
	}{
		{"PTrack-Automatic", res.AutomaticErrors},
		{"PTrack-Manual", res.ManualErrors},
	} {
		mean, med, p90 := cdfSummary(row.errs)
		tbl.Rows = append(tbl.Rows, []string{row.name, f3(mean), f3(med), f3(p90), d0(len(row.errs))})
	}
	tbl.Notes = append(tbl.Notes, "paper: 5.3 cm automatic vs 5.7 cm manual on average")
	return tbl, res
}
