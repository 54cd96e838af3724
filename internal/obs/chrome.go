package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"dramhit/internal/table"
)

// Chrome trace-event export: the flight recorder renders the trace ring in
// the Trace Event Format that chrome://tracing and Perfetto open directly.
// Request lifecycles become async spans (ph "b"/"n"/"e" correlated by trace
// id), and resize and reshard windows become async spans over their
// migration id.

// chromeEvent is one entry of the traceEvents array. Fields follow the
// Trace Event Format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// resizePhaseName maps the ResizeInstall/Chunk/Swap codes carried in
// Event.Op of EvResize/EvReshard events to span phases.
func resizePhase(op uint8) string {
	switch op {
	case ResizeInstall:
		return "b"
	case ResizeSwap:
		return "e"
	default:
		return "n"
	}
}

// WriteChromeTrace renders events as a Chrome trace-event JSON document.
// Timestamps are rebased to the earliest event so the trace opens at t=0.
func WriteChromeTrace(w io.Writer, evs []Event) error {
	var t0 int64
	for i, ev := range evs {
		if i == 0 || ev.TS < t0 {
			t0 = ev.TS
		}
	}
	doc := chromeDoc{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	for _, ev := range evs {
		ce := chromeEvent{
			TS:  float64(ev.TS-t0) / 1e3,
			PID: 1,
			TID: 1,
			ID:  fmt.Sprintf("%#x", ev.ID),
		}
		switch ev.Kind {
		case EvSubmit, EvProbe, EvReprobe, EvComplete:
			ce.Cat = "request"
			ce.Name = table.Op(ev.Op).String()
			ce.Args = map[string]any{
				"key":  fmt.Sprintf("%#x", ev.Key),
				"step": ev.Kind.String(),
				"arg":  ev.Arg,
			}
			switch ev.Kind {
			case EvSubmit:
				ce.Ph = "b"
			case EvComplete:
				ce.Ph = "e"
			default:
				ce.Ph = "n"
			}
		case EvResize, EvReshard:
			ce.Cat = "migration"
			ce.Name = ev.Kind.String()
			ce.Ph = resizePhase(ev.Op)
			ce.Args = map[string]any{"chunk": ev.Key, "progress_permille": ev.Arg}
		default:
			continue
		}
		doc.TraceEvents = append(doc.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
