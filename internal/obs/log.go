package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// ParseLevel converts a -log-level flag value ("debug", "info", "warn",
// "error") into a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
	}
}

// NewLogger returns a text-format slog.Logger writing to w at the given
// level — the CLI-facing default (structured, human-scannable on
// stderr).
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}

// Discard is a logger that drops every record: what components log to
// when their caller configured no logger (log/slog has no discard
// handler before Go 1.24).
var Discard = slog.New(discardHandler{})

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
