// Package engine is the concurrency layer on top of the PTrack pipeline:
// a bounded worker pool that fans independent traces across cores (the
// paper's workload is embarrassingly parallel across users/recordings),
// and a session hub that multiplexes many concurrent online streams.
//
// The DSP itself stays single-threaded; throughput comes from processing
// many recordings at once. Worker-local pipeline scratch (projection
// buffers, smoothing buffers, pending-cycle lists) is recycled through a
// sync.Pool so steady-state batch processing does not re-allocate it.
package engine

import (
	"context"
	"runtime"
	"sync"
	"time"

	"ptrack/internal/core"
	"ptrack/internal/obs"
	"ptrack/internal/trace"
)

// Item is the outcome for one trace of a batch: exactly one of Result
// and Err is non-nil. Traces the pool never reached (cancelled batches)
// carry the context's error.
type Item struct {
	Result *core.Result
	Err    error
}

// Pool processes batches of traces across a bounded set of workers.
// A Pool is safe for concurrent use and may be reused across batches;
// its pipelines (and their scratch buffers) are recycled via sync.Pool.
type Pool struct {
	workers   int
	cfg       core.Config
	hooks     *obs.Hooks
	pipelines sync.Pool // of *core.Pipeline
}

// NewPool returns a pool with the given parallelism (<= 0 selects
// runtime.GOMAXPROCS(0)). The configuration is validated once, up front,
// so a bad profile fails here rather than per trace.
func NewPool(workers int, cfg core.Config) (*Pool, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Validate the configuration once; workers assume it is good.
	if _, err := core.NewPipeline(cfg); err != nil {
		return nil, err
	}
	return &Pool{workers: workers, cfg: cfg, hooks: cfg.Hooks}, nil
}

// Workers returns the pool's parallelism bound.
func (p *Pool) Workers() int { return p.workers }

func (p *Pool) pipeline() *core.Pipeline {
	if pl, ok := p.pipelines.Get().(*core.Pipeline); ok {
		return pl
	}
	pl, err := core.NewPipeline(p.cfg)
	if err != nil {
		// NewPool validated the identical configuration; reaching this
		// would be a programming error in core.
		panic("engine: pipeline construction failed after validation: " + err.Error())
	}
	return pl
}

// Process runs the batch. Results are returned in input order
// (items[i] belongs to traces[i]) regardless of completion order, and
// each trace's failure is isolated to its own Item. When ctx is
// cancelled mid-batch the in-flight traces finish, the remaining ones
// get Err = ctx.Err(), and the context error is also returned.
func (p *Pool) Process(ctx context.Context, traces []*trace.Trace) ([]Item, error) {
	items := make([]Item, len(traces))
	if len(traces) == 0 {
		return items, ctx.Err()
	}
	workers := p.workers
	if workers > len(traces) {
		workers = len(traces)
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			pl := p.pipeline()
			defer p.pipelines.Put(pl)
			h := p.hooks
			for i := range idx {
				var t0 time.Time
				if h != nil {
					h.PoolTraceStart()
					t0 = time.Now()
				}
				res, err := pl.Process(traces[i])
				if err != nil {
					items[i] = Item{Err: err}
				} else {
					items[i] = Item{Result: res}
				}
				if h != nil {
					h.PoolTraceDone(time.Since(t0).Seconds())
				}
			}
		}()
	}

	next := 0
feed:
	for ; next < len(traces); next++ {
		// A select with both cases ready picks at random, so check the
		// context first: a cancelled batch starts no further trace.
		if ctx.Err() != nil {
			break
		}
		select {
		case idx <- next:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		for i := next; i < len(traces); i++ {
			items[i] = Item{Err: err}
		}
		return items, err
	}
	return items, nil
}

// BatchProcess is a one-shot convenience: it builds a pool and runs one
// batch. Reuse a Pool instead when processing several batches, so the
// pipeline scratch is recycled across them.
func BatchProcess(ctx context.Context, traces []*trace.Trace, workers int, cfg core.Config) ([]Item, error) {
	p, err := NewPool(workers, cfg)
	if err != nil {
		return nil, err
	}
	return p.Process(ctx, traces)
}
