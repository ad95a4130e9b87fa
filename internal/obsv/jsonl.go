package obsv

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// jsonlVersion is the current trace file format version.
const jsonlVersion = 1

// Meta is the header line of a JSONL event trace: enough context to
// reconstruct the world without inferring it from the events (an idle rank
// produces no events but still exists and keeps its Gantt row).
type Meta struct {
	// Version is the trace format version (currently 1).
	Version int `json:"version"`
	// Ranks is the world size.
	Ranks int `json:"ranks"`
	// Transport names the substrate ("mem", "tcp", "simnet", ...).
	Transport string `json:"transport,omitempty"`
	// Name labels the run (algorithm, experiment).
	Name string `json:"name,omitempty"`
	// Msize is the per-pair block size of the run, when applicable.
	Msize int `json:"msize,omitempty"`
}

// metaLine is the wire form of the header, distinguishable from event lines
// by its "meta" key.
type metaLine struct {
	Meta *Meta `json:"meta"`
}

// WriteJSONL writes a trace: one meta header line, then one JSON object per
// event. Events are written as given; use MergedEvents for the canonical
// start-time order.
func WriteJSONL(w io.Writer, meta Meta, events []Event) error {
	if meta.Version == 0 {
		meta.Version = jsonlVersion
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(metaLine{Meta: &meta}); err != nil {
		return err
	}
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteRecorders merges the recorders' events into canonical order and
// writes them as one trace. A zero meta.Ranks is filled in from the number
// of recorders.
func WriteRecorders(w io.Writer, meta Meta, recs ...*Recorder) error {
	if meta.Ranks == 0 {
		meta.Ranks = len(recs)
	}
	return WriteJSONL(w, meta, MergedEvents(recs...))
}

// ReadJSONL parses a trace written by WriteJSONL. A missing header is
// tolerated (Meta zero value, ranks inferred by the consumer); unknown
// event kinds fail loudly rather than being dropped silently.
func ReadJSONL(r io.Reader) (Meta, []Event, error) {
	var meta Meta
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if lineno == 1 {
			var ml metaLine
			if err := json.Unmarshal(line, &ml); err == nil && ml.Meta != nil {
				meta = *ml.Meta
				continue
			}
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return meta, nil, fmt.Errorf("obsv: trace line %d: %w", lineno, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return meta, nil, fmt.Errorf("obsv: reading trace: %w", err)
	}
	return meta, events, nil
}

// sortEvents orders events by start time, breaking ties by rank then kind —
// the canonical trace order.
func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Start != evs[j].Start {
			return evs[i].Start < evs[j].Start
		}
		if evs[i].Rank != evs[j].Rank {
			return evs[i].Rank < evs[j].Rank
		}
		return evs[i].Kind < evs[j].Kind
	})
}
