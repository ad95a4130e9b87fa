package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// allowPrefix introduces a suppression comment. The full form is
//
//	//aapc:allow analyzer1 analyzer2 (free-form reason)
//
// placed on the flagged line or the line directly above it. Analyzer names
// are read up to the first token that is not a registered analyzer name;
// the rest of the line is the human reason and is ignored by the machinery.
// A comment whose first token names no registered analyzer (a misspelling,
// a retired pass) suppresses nothing and is an audit finding of its own.
const allowPrefix = "aapc:allow"

// knownAllowNames is populated from the suite so free-text reasons are never
// mistaken for analyzer names.
var knownAllowNames = map[string]bool{}

func init() {
	for _, a := range Suite() {
		knownAllowNames[a.Name] = true
	}
}

// allowIndex maps file name -> line -> allowed analyzer name -> entry.
// Entries are shared, so marking one used through any line lookup marks
// the comment's claim used. misnamed holds the comments whose first token
// is no registered analyzer.
type allowIndex struct {
	files    map[string]map[int]map[string]*AllowEntry
	misnamed []AllowEntry
}

// buildAllowIndex scans every comment in the files for suppression markers.
func buildAllowIndex(fset *token.FileSet, files []*ast.File) *allowIndex {
	idx := &allowIndex{files: make(map[string]map[int]map[string]*AllowEntry)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, allowPrefix)
				names := parseAllowNames(rest)
				pos := fset.Position(c.Pos())
				if len(names) == 0 {
					var first string
					if toks := strings.Fields(rest); len(toks) > 0 {
						first = toks[0]
					}
					idx.misnamed = append(idx.misnamed, AllowEntry{File: pos.Filename, Line: pos.Line, Analyzer: first, Misnamed: true})
					continue
				}
				lines := idx.files[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]*AllowEntry)
					idx.files[pos.Filename] = lines
				}
				set := lines[pos.Line]
				if set == nil {
					set = make(map[string]*AllowEntry)
					lines[pos.Line] = set
				}
				for _, n := range names {
					if set[n] == nil {
						set[n] = &AllowEntry{File: pos.Filename, Line: pos.Line, Analyzer: n}
					}
				}
			}
		}
	}
	return idx
}

// parseAllowNames extracts the leading analyzer-name tokens of a suppression
// comment's tail.
func parseAllowNames(rest string) []string {
	var names []string
	for _, tok := range strings.Fields(rest) {
		if !knownAllowNames[tok] {
			break
		}
		names = append(names, tok)
	}
	return names
}

// allows reports whether a diagnostic of the named analyzer at pos is
// suppressed: an allow comment for it sits on the same line or the line
// above. A hit marks the entry used for the -unusedallow audit.
func (idx *allowIndex) allows(pos token.Position, analyzer string) bool {
	lines := idx.files[pos.Filename]
	if lines == nil {
		return false
	}
	for _, l := range [2]int{pos.Line, pos.Line - 1} {
		if set := lines[l]; set != nil && set[analyzer] != nil {
			set[analyzer].used = true
			return true
		}
	}
	return false
}

// unused returns the entries that suppressed nothing, sorted by (file,
// line, analyzer): every misnamed comment, and the claims of analyzers that
// actually ran (a comment for a pass disabled on the command line is not
// evidence of rot).
func (idx *allowIndex) unused(ran []*Analyzer) []AllowEntry {
	ranNames := make(map[string]bool, len(ran))
	for _, a := range ran {
		ranNames[a.Name] = true
	}
	out := append([]AllowEntry(nil), idx.misnamed...)
	for _, lines := range idx.files {
		for _, set := range lines {
			for _, e := range set {
				if !e.used && ranNames[e.Analyzer] {
					out = append(out, *e)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}
