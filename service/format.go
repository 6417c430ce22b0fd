package service

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"patch"
)

// Output formats, shared by GET /jobs/{id}/result?format=<name> and
// sweepd -local: each is an Emitter constructor. The server replays the
// finished job's cells through a fresh emitter per download, so the
// bytes served are exactly what a local Sweep with that emitter
// produces.

type formatEntry struct {
	make        func(io.Writer) patch.Emitter
	contentType string
}

var formats = map[string]formatEntry{
	"csv":      {func(w io.Writer) patch.Emitter { return &patch.CSVEmitter{W: w} }, "text/csv; charset=utf-8"},
	"json":     {func(w io.Writer) patch.Emitter { return &patch.JSONEmitter{W: w} }, "application/json"},
	"markdown": {func(w io.Writer) patch.Emitter { return &patch.MarkdownEmitter{W: w} }, "text/markdown; charset=utf-8"},
	"chart":    {func(w io.Writer) patch.Emitter { return &patch.ChartEmitter{W: w} }, "text/plain; charset=utf-8"},
}

// Formats lists the output format names, sorted.
func Formats() []string {
	names := make([]string, 0, len(formats))
	for n := range formats {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewEmitter returns a fresh emitter for the named output format,
// writing to w.
func NewEmitter(format string, w io.Writer) (patch.Emitter, error) {
	f, ok := formats[format]
	if !ok {
		return nil, unknownFormat(format)
	}
	return f.make(w), nil
}

func unknownFormat(name string) error {
	return fmt.Errorf("unknown format %q (have: %s)", name, strings.Join(Formats(), ", "))
}
