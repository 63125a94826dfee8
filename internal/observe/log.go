package observe

import (
	"io"
	"log/slog"
	"strings"
)

// NewLogger builds a slog.Logger writing to w in the requested format:
// "json" for machine ingestion, anything else (conventionally "text")
// for humans. level follows slog's levels; slog.LevelInfo is the usual
// choice.
func NewLogger(w io.Writer, format string, level slog.Level) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	if strings.EqualFold(format, "json") {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}

// LogRun emits the run-summary record matching a RunRecord — shared by
// the CLI's normal and -serve paths so both log the same shape.
func LogRun(l *slog.Logger, r RunRecord) {
	if l == nil {
		return
	}
	attrs := []any{
		slog.Uint64("seq", r.Seq),
		slog.String("algorithm", r.Algorithm),
		slog.Time("start", r.Start),
		slog.Float64("wall_seconds", r.WallSeconds),
		slog.Int("vertices", r.Vertices),
		slog.Int64("arcs", r.Arcs),
		slog.Int("threads", r.Threads),
		slog.Int("passes", r.Passes),
		slog.Int64("moves", r.Moves),
		slog.Int("communities", r.Communities),
		slog.Float64("modularity", r.Modularity),
	}
	if r.Check != "" {
		attrs = append(attrs, slog.String("check", r.Check))
	}
	l.Info("run", attrs...)
}
