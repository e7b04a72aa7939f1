package ptrack

import (
	"context"
	"errors"
	"fmt"

	"ptrack/internal/condition"
	"ptrack/internal/engine"
)

// BatchItem is the outcome for one trace of a batch: exactly one of
// Result and Err is set. Err wraps the package sentinels (ErrEmptyTrace,
// ErrInvalidSampleRate, ErrDefectiveTrace) or, for admitted traces a
// cancelled batch never reached, the context's error.
type BatchItem struct {
	Result *Result
	Err    error
}

// Pool processes batches of traces concurrently across a bounded set of
// workers, recycling pipeline scratch between traces and between
// batches. A Pool is safe for concurrent use. Prefer a Pool over
// repeated BatchProcess calls when processing several batches.
type Pool struct {
	ep *engine.Pool
	// cond is non-nil when WithConditioning is enabled; Process then
	// repairs defective traces instead of rejecting them.
	cond *condition.Config
}

// NewPool builds a worker pool with the given parallelism (<= 0 selects
// GOMAXPROCS) accepting the same options as New. Configuration errors
// wrap ErrInvalidProfile.
func NewPool(workers int, opts ...Option) (*Pool, error) {
	o, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	ep, err := engine.NewPool(workers, o.coreConfig())
	if err != nil {
		return nil, fmt.Errorf("ptrack: %w", err)
	}
	p := &Pool{ep: ep}
	if o.conditioning {
		cc := o.conditionConfig()
		p.cond = &cc
	}
	return p, nil
}

// Workers returns the pool's parallelism bound.
func (p *Pool) Workers() int { return p.ep.Workers() }

// Process runs one batch. items[i] always belongs to traces[i], whatever
// order the workers finish in, and each trace's failure is isolated to
// its own item. When ctx is cancelled mid-batch, in-flight traces
// finish, unstarted ones carry ctx.Err(), and ctx.Err() is also
// returned; otherwise the returned error is nil even if individual
// traces failed.
//
// Every trace is admitted first, exactly as Tracker.Process admits it:
// one violating the ingestion contract fails its item with
// ErrDefectiveTrace (or ErrEmptyTrace / ErrInvalidSampleRate), even in
// a cancelled batch; with WithConditioning it is repaired instead. The
// admitted segments of all traces run across the pool's workers as one
// flat batch and are folded back so items still map 1:1 onto traces.
func (p *Pool) Process(ctx context.Context, traces []*Trace) ([]BatchItem, error) {
	type admitted struct {
		start int // index of the first segment in the flat batch
		segs  []*Trace
		rep   *ConditionReport
		err   error
	}
	adm := make([]admitted, len(traces))
	var flat []*Trace
	for i, tr := range traces {
		segs, rep, err := admit(tr, p.cond)
		adm[i] = admitted{start: len(flat), segs: segs, rep: rep, err: err}
		flat = append(flat, segs...)
	}
	items, err := p.ep.Process(ctx, flat)
	out := make([]BatchItem, len(traces))
	for i := range adm {
		a := &adm[i]
		if a.err != nil {
			out[i].Err = a.err
			continue
		}
		results := make([]*Result, len(a.segs))
		for j := range a.segs {
			it := items[a.start+j]
			if it.Err != nil {
				out[i].Err = wrapBatchErr(it.Err)
				break
			}
			results[j] = it.Result
		}
		if out[i].Err == nil {
			out[i].Result = fold(a.segs, results, a.rep)
		}
	}
	return out, err
}

// wrapBatchErr maps a per-segment engine error onto the package's error
// contract: context errors pass through, anything else is wrapped.
func wrapBatchErr(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return fmt.Errorf("ptrack: %w", err)
}

// BatchProcess processes many traces concurrently with a one-shot pool
// at GOMAXPROCS parallelism. It accepts the same options as New; see
// Pool.Process for the result contract.
func BatchProcess(ctx context.Context, traces []*Trace, opts ...Option) ([]BatchItem, error) {
	p, err := NewPool(0, opts...)
	if err != nil {
		return nil, err
	}
	return p.Process(ctx, traces)
}
