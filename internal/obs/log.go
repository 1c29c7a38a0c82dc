package obs

import (
	"io"
	"log/slog"
	"time"

	"hyperhammer/internal/report"
)

// SimNow reports the current simulated time for log stamping; a nil
// SimNow stamps records with "-".
type SimNow func() time.Duration

// NewLogHandler creates a slog text handler writing to w at the given
// minimum level (nil level means slog.LevelInfo). It stamps every
// record with the simulated clock instead of (meaningless,
// microseconds-long) wall time, so human-readable logs line up with
// traces and metrics on one time base:
//
//	sim=2.1h level=INFO msg="attempt finished" attempt=3 success=false
func NewLogHandler(w io.Writer, now SimNow, level slog.Leveler) slog.Handler {
	stamp := func(groups []string, a slog.Attr) slog.Attr {
		if a.Key != slog.TimeKey || len(groups) > 0 {
			return a
		}
		if now == nil {
			return slog.String("sim", "-")
		}
		return slog.String("sim", report.FormatDuration(now()))
	}
	return slog.NewTextHandler(w, &slog.HandlerOptions{Level: level, ReplaceAttr: stamp})
}

// NewLogger wraps NewLogHandler in a *slog.Logger.
func NewLogger(w io.Writer, now SimNow, level slog.Leveler) *slog.Logger {
	return slog.New(NewLogHandler(w, now, level))
}
