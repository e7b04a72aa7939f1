package ptrack

import (
	"errors"
	"fmt"
	"math"

	"ptrack/internal/engine"
)

// Sentinel errors. Every error returned by this package's constructors
// and processing entry points wraps one of these (plus the usual
// context errors for cancelled batches), so callers can branch with
// errors.Is instead of matching message text:
//
//	if _, err := ptrack.New(ptrack.WithProfile(0, 0.9, 2.35)); errors.Is(err, ptrack.ErrInvalidProfile) { ... }
var (
	// ErrInvalidProfile reports an unusable user profile: a non-positive
	// or non-finite arm length, leg length or calibration factor, whether
	// passed to New, NewOnline, NewPool, NewSessionHub or CalibrateK.
	ErrInvalidProfile = errors.New("invalid profile")
	// ErrInvalidSampleRate reports a sample rate that is not a positive,
	// finite number — on a trace handed to Process/BatchProcess, or on a
	// streaming constructor (NewOnline, NewSessionHub).
	ErrInvalidSampleRate = errors.New("invalid sample rate")
	// ErrEmptyTrace reports a nil trace or one without samples.
	ErrEmptyTrace = errors.New("empty trace")
	// ErrDefectiveTrace reports a trace that violates the ingestion
	// contract the DSP layers assume — non-monotonic or irregular
	// timestamps, non-finite samples, a missing sample rate — while
	// conditioning is disabled, or one so defective the conditioner
	// could not recover a usable stream. Enable WithConditioning to
	// repair such traces instead of rejecting them.
	ErrDefectiveTrace = errors.New("defective trace")

	// ErrSessionQueueFull reports a Push dropped because the session's
	// bounded queue was full (backpressure signal; the stream itself
	// stays live).
	ErrSessionQueueFull = engine.ErrQueueFull
	// ErrHubClosed reports a Push on a closed SessionHub.
	ErrHubClosed = engine.ErrHubClosed
)

// validTrace classifies a trace against the sentinel contract. It
// returns nil when the trace can be processed.
func validTrace(tr *Trace) error {
	switch {
	case tr == nil || len(tr.Samples) == 0:
		return ErrEmptyTrace
	case !(tr.SampleRate > 0) || math.IsInf(tr.SampleRate, 1):
		// NaN fails every comparison, so `> 0` alone catches it too.
		return fmt.Errorf("%w: %v Hz", ErrInvalidSampleRate, tr.SampleRate)
	}
	return nil
}

// validSampleRate checks a streaming constructor's rate argument.
func validSampleRate(rate float64) error {
	if !(rate > 0) || math.IsInf(rate, 1) {
		return fmt.Errorf("%w: %v Hz", ErrInvalidSampleRate, rate)
	}
	return nil
}
