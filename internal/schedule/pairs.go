package schedule

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
)

// The JSON form of messages, shared by the daemon's schedule bodies and the
// generator's routine JSON: a run of messages is one flat array of
// non-negative ints taken in (src, dst) pairs, [src,dst,src,dst,…]. A phase
// is that form of its messages; a synchronization (syncplan.Sync) is that
// form of its two messages.

// MarshalJSON renders the phase as [src,dst,src,dst,…].
func (p Phase) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 2+len(p)*8)
	b = append(b, '[')
	for i, m := range p {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(m.Src), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(m.Dst), 10)
	}
	return append(b, ']'), nil
}

// UnmarshalJSON parses the phase from [src,dst,src,dst,…]; null leaves it
// as it is.
func (p *Phase) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	ms, err := AppendMessagePairs(make(Phase, 0, (bytes.Count(data, []byte{','})+1)/2), data)
	if err != nil {
		return err
	}
	*p = ms
	return nil
}

// AppendMessagePairs parses data, a JSON array of non-negative ints taken
// in (src, dst) pairs, and appends the messages to dst. JSON null appends
// nothing. Anything else is an error, and dst comes back as it went in: a
// negative, fractional, exponent or zero-prefixed number, one that
// overflows int, a non-number element, an odd count, or bytes after the
// array. A caller that passes storage with room for the pairs gets them
// without a heap allocation.
func AppendMessagePairs(dst []Message, data []byte) ([]Message, error) {
	n0 := len(dst)
	fail := func(at int, what string) ([]Message, error) {
		return dst[:n0], fmt.Errorf("schedule: message pairs: %s at offset %d", what, at)
	}
	i := skipSpace(data, 0)
	if bytes.HasPrefix(data[i:], []byte("null")) {
		if i = skipSpace(data, i+4); i != len(data) {
			return fail(i, "bytes after null")
		}
		return dst, nil
	}
	if i == len(data) || data[i] != '[' {
		return fail(i, "want [")
	}
	i = skipSpace(data, i+1)
	count := 0
	if i < len(data) && data[i] == ']' {
		i++
	} else {
		var src int
		for {
			v, j, what := parseRank(data, i)
			if what != "" {
				return fail(i, what)
			}
			if count&1 == 0 {
				src = v
			} else {
				dst = append(dst, Message{Src: src, Dst: v})
			}
			count++
			if i = skipSpace(data, j); i == len(data) {
				return fail(i, "want , or ]")
			}
			if data[i] == ']' {
				i++
				break
			}
			if data[i] != ',' {
				return fail(i, "want , or ]")
			}
			i = skipSpace(data, i+1)
		}
	}
	if count&1 != 0 {
		return fail(i, "odd count of ints")
	}
	if i = skipSpace(data, i); i != len(data) {
		return fail(i, "bytes after the array")
	}
	return dst, nil
}

// parseRank reads the non-negative JSON int at data[i:], returning it and
// the offset after it, or what is wrong with it.
func parseRank(data []byte, i int) (v, next int, what string) {
	j := i
	for j < len(data) && data[j] >= '0' && data[j] <= '9' {
		d := int(data[j] - '0')
		if v > (math.MaxInt-d)/10 {
			return 0, j, "int overflow"
		}
		v = v*10 + d
		j++
	}
	switch {
	case j == i:
		return 0, j, "want a non-negative int"
	case data[i] == '0' && j > i+1:
		return 0, j, "leading zero"
	case j < len(data) && (data[j] == '.' || data[j] == 'e' || data[j] == 'E'):
		return 0, j, "not an int"
	}
	return v, j, ""
}

// skipSpace returns the offset of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}
