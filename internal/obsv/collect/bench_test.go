package collect

import (
	"bytes"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/obsv"
)

// Collector benchmarks: JSONL ingest throughput, merge rate, and
// full-analysis cost, reported as spans/sec so the numbers compare across
// trace sizes. The repository benchmark's collect.ingest_spans_per_s and
// collect.analyze_ms rows track the same costs on a traced all-to-all.

// benchTrace synthesizes a linked all-to-all trace: ranks x rounds, one
// send+recv pair per directed pair per round plus a phase marker, with
// every recv causally linked to its true send.
func benchTrace(ranks, rounds int) [][]obsv.Event {
	byRank := make([][]obsv.Event, ranks)
	seq := make([]uint64, ranks)
	t := 0.0
	for round := 0; round < rounds; round++ {
		for r := 0; r < ranks; r++ {
			seq[r]++
			byRank[r] = append(byRank[r], obsv.Event{
				Kind: obsv.KindPhase, Rank: r, Peer: -1, Seq: seq[r], Phase: round,
				Start: t, End: t,
			})
		}
		for a := 0; a < ranks; a++ {
			for b := 0; b < ranks; b++ {
				if a == b {
					continue
				}
				t += 1e-6
				seq[a]++
				sendSeq := seq[a]
				byRank[a] = append(byRank[a], obsv.Event{
					Kind: obsv.KindSend, Rank: a, Peer: b, Seq: sendSeq, Phase: round,
					Bytes: 4096, Start: t, End: t + 2e-5, Deliver: t + 1.5e-5,
				})
				seq[b]++
				byRank[b] = append(byRank[b], obsv.Event{
					Kind: obsv.KindRecv, Rank: b, Peer: a, Seq: seq[b], Phase: round,
					LinkSeq: sendSeq, Bytes: 4096,
					Start: t, End: t + 3e-5, Deliver: t + 1.5e-5,
				})
			}
		}
	}
	return byRank
}

func traceSpanCount(byRank [][]obsv.Event) int {
	n := 0
	for _, evs := range byRank {
		n += len(evs)
	}
	return n
}

// BenchmarkIngestJSONL is the wire-format path: parse one serialized trace
// and group it by rank, as POST /v1/trace/ingest does per request.
func BenchmarkIngestJSONL(b *testing.B) {
	byRank := benchTrace(16, 8)
	var all []obsv.Event
	for _, evs := range byRank {
		all = append(all, evs...)
	}
	var buf bytes.Buffer
	if err := obsv.WriteJSONL(&buf, obsv.Meta{Version: 1, Ranks: 16}, all); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewStore()
		if err := s.AddJSONL(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(all))*float64(b.N)/b.Elapsed().Seconds(), "spans/s")
}

// BenchmarkMerge is the collector's merge core: per-rank logs onto the
// common timebase (offset estimation skipped, as for in-process traces).
func BenchmarkMerge(b *testing.B) {
	byRank := benchTrace(16, 8)
	offsets := make([]float64, len(byRank))
	spans := traceSpanCount(byRank)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := Merge(byRank, offsets); len(got) != spans {
			b.Fatalf("merged %d spans, want %d", len(got), spans)
		}
	}
	b.ReportMetric(float64(spans)*float64(b.N)/b.Elapsed().Seconds(), "spans/s")
}

// BenchmarkAnalyze is the full report: merge, causal link count, critical
// path, phase attribution, straggler.
func BenchmarkAnalyze(b *testing.B) {
	for _, size := range []struct {
		name          string
		ranks, rounds int
	}{
		{"ranks=8", 8, 8},
		{"ranks=32", 32, 4},
	} {
		b.Run(size.name, func(b *testing.B) {
			s := NewStore()
			s.SetCommonClock(true)
			byRank := benchTrace(size.ranks, size.rounds)
			for _, evs := range byRank {
				s.AddEvents(evs)
			}
			spans := s.NumSpans()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := s.Analyze(nil)
				if rep.Spans != spans || rep.SlowestRank < 0 {
					b.Fatalf("bad report: %d spans straggler %d", rep.Spans, rep.SlowestRank)
				}
			}
			b.ReportMetric(float64(spans)*float64(b.N)/b.Elapsed().Seconds(), "spans/s")
		})
	}
}

// BenchmarkEstimateOffsets is the multi-host path: pairwise minimum one-way
// delays plus BFS composition over the rank graph.
func BenchmarkEstimateOffsets(b *testing.B) {
	byRank := benchTrace(16, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := EstimateOffsets(byRank); len(got) != len(byRank) {
			b.Fatal("bad offsets")
		}
	}
}
