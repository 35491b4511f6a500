// Span-tree serialization: the native JSON schema served by
// GET /v1/runs/{id}/spans and the Chrome trace-event form
// (?format=chrome) that loads directly into Perfetto or
// chrome://tracing. Both writers are deterministic — field order is
// fixed by struct layout, attribute order is fixed by the tree builder,
// and floats use strconv's exact shortest form — so byte-identical span
// trees serialize to byte-identical documents.

package trace

import (
	"encoding/json"
	"io"
	"time"
)

// spanJSON is the native wire form of one span.
type spanJSON struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	// StartUS/DurUS are microseconds from the trace epoch; fractional
	// microseconds carry full nanosecond precision.
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	Ended   bool    `json:"ended"`
	Attrs   []Attr  `json:"attrs,omitempty"`
}

// traceJSON is the native document: header plus spans in start order.
type traceJSON struct {
	TraceID string     `json:"trace_id"`
	Attrs   []Attr     `json:"attrs,omitempty"`
	Spans   []spanJSON `json:"spans"`
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// WriteJSON writes the snapshot in the native schema as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	doc := traceJSON{TraceID: s.TraceID, Attrs: s.Attrs, Spans: make([]spanJSON, len(s.Spans))}
	for i, sp := range s.Spans {
		j := spanJSON{
			ID:      formatID(sp.ID),
			Name:    sp.Name,
			StartUS: micros(sp.Start),
			DurUS:   micros(sp.End - sp.Start),
			Ended:   sp.Ended,
			Attrs:   sp.Attrs,
		}
		if sp.Parent != 0 {
			j.Parent = formatID(sp.Parent)
		}
		doc.Spans[i] = j
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// chromeEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// ph "X" complete events carry ts+dur and ph "M" metadata names the
// process. ts and dur are microseconds. All spans share pid/tid 1; viewers nest same-track "X"
// events by interval containment, which reproduces the span hierarchy.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  *float64          `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome writes the snapshot as Chrome trace-event JSON. Load the
// output at https://ui.perfetto.dev or chrome://tracing.
func (s Snapshot) WriteChrome(w io.Writer) error {
	doc := chromeDoc{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	meta := map[string]string{"name": "harmonia"}
	if s.TraceID != "" {
		meta["trace_id"] = s.TraceID
	}
	for _, a := range s.Attrs {
		meta[a.Key] = a.Value
	}
	doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", PID: 1, TID: 1, Args: meta,
	})
	for _, sp := range s.Spans {
		dur := micros(sp.End - sp.Start)
		if dur < 0 {
			dur = 0
		}
		args := make(map[string]string, len(sp.Attrs)+2)
		for _, a := range sp.Attrs {
			args[a.Key] = a.Value
		}
		args["span_id"] = formatID(sp.ID)
		if sp.Parent != 0 {
			args["parent_id"] = formatID(sp.Parent)
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: sp.Name, Cat: "harmonia", Ph: "X",
			TS: micros(sp.Start), Dur: &dur, PID: 1, TID: 1, Args: args,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
