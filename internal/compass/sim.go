package compass

import (
	"context"

	"github.com/cognitive-sim/compass/internal/truenorth"
)

// Run simulates ticks ticks of model m under cfg and returns aggregated
// statistics. The spike output is identical for every (ranks, threads,
// transport) choice; only the communication behaviour differs.
func Run(m *truenorth.Model, cfg Config, ticks int) (*RunStats, error) {
	return RunContext(context.Background(), m, cfg, ticks)
}

// RunContext is Run with cooperative cancellation: every rank checks ctx
// at its tick boundaries, and the first cancelled rank aborts the
// transport so peers blocked in a collective, barrier, or receive unwind
// within one tick on every backend. A cancelled run returns ctx.Err()
// (the secondary transport-abort errors are suppressed by the same
// two-pass causal-error machinery that serves injected rank crashes);
// partial state is discarded, so callers that need resumability should
// checkpoint between bounded RunContext windows.
//
// RunContext freezes m into a private image and runs against it; callers
// that run the same model repeatedly (or concurrently) should build the
// image once with truenorth.NewImage and call RunImageContext, sharing
// the immutable half across runs.
func RunContext(ctx context.Context, m *truenorth.Model, cfg Config, ticks int) (*RunStats, error) {
	img, err := truenorth.NewImage(m)
	if err != nil {
		return nil, err
	}
	return RunImageContext(ctx, img, cfg, ticks)
}

// RunImage simulates ticks ticks against a prebuilt immutable image.
// Only per-session runtime state is allocated; the image's
// configurations and kernels are shared copy-on-write, so any number of
// RunImage calls may execute concurrently against one image and each
// produces output bit-identical to a run on a private model.
func RunImage(img *truenorth.Image, cfg Config, ticks int) (*RunStats, error) {
	return RunImageContext(context.Background(), img, cfg, ticks)
}

// RunImageContext is RunImage with cooperative cancellation. A solo run
// is a one-lane batch: the config's per-session fields (StartFrom,
// InputSource, OutputSink, Telemetry) move onto the single lane, and
// the batched engine runs it (see batch.go).
func RunImageContext(ctx context.Context, img *truenorth.Image, cfg Config, ticks int) (*RunStats, error) {
	lane := BatchLane{
		StartFrom:   cfg.StartFrom,
		InputSource: cfg.InputSource,
		OutputSink:  cfg.OutputSink,
		Telemetry:   cfg.Telemetry,
	}
	cfg.StartFrom, cfg.InputSource, cfg.OutputSink, cfg.Telemetry = nil, nil, nil, nil
	res, err := RunBatchContext(ctx, img, cfg, ticks, []BatchLane{lane})
	if err != nil {
		return nil, err
	}
	return res.Lanes[0], nil
}
