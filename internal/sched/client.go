package sched

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"github.com/aapc-sched/aapcsched/internal/topology"
)

// Client talks to a running aapcd over its v1 HTTP API.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient builds a client for the daemon at base (e.g.
// "http://127.0.0.1:7113"). hc may be nil for http.DefaultClient.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: base, hc: hc}
}

// decodeError extracts the JSON error body of a non-2xx response.
func decodeError(resp *http.Response) error {
	var e ErrorResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<10)).Decode(&e); err != nil || e.Error == "" {
		return fmt.Errorf("sched: daemon returned %s", resp.Status)
	}
	return fmt.Errorf("sched: daemon returned %s: %s", resp.Status, e.Error)
}

// getJSON fetches u and decodes the JSON body of a 200 response into out.
func (c *Client) getJSON(ctx context.Context, u string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("sched: decoding response of %s: %w", req.URL.Path, err)
	}
	// Decode stops at the end of the JSON value, which on a chunked body is
	// before EOF, and the transport discards a connection whose body is
	// closed unread. Read the remainder (a newline and the last chunk) so
	// the connection is reused.
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	return nil
}

// Schedule fetches the schedule for the algorithm and message size.
// withSyncs also requests the pair-wise synchronization plan. hash, when
// non-empty, pins the request to a retained topology version.
func (c *Client) Schedule(ctx context.Context, alg string, msize int, withSyncs bool, hash string) (*ScheduleResponse, error) {
	q := url.Values{}
	q.Set("alg", alg)
	q.Set("msize", strconv.Itoa(msize))
	if withSyncs {
		q.Set("syncs", "1")
	}
	if hash != "" {
		q.Set("hash", hash)
	}
	var out ScheduleResponse
	if err := c.getJSON(ctx, c.base+"/v1/schedule?"+q.Encode(), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Topology fetches a topology version (0 means current).
func (c *Client) Topology(ctx context.Context, version int) (*TopologyResponse, error) {
	u := c.base + "/v1/topology"
	if version > 0 {
		u += "?version=" + strconv.Itoa(version)
	}
	var out TopologyResponse
	if err := c.getJSON(ctx, u, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// UpdateStream is a lockstep topology-update session over one POST
// /v1/updates connection: each Apply sends one delta line and blocks for
// its ack, so the caller observes the new version (or the rejection) before
// deciding the next update.
type UpdateStream struct {
	pw    *io.PipeWriter
	ready chan error // receives once: nil with resp set, or the dial error
	resp  *http.Response
	sc    *bufio.Scanner
	// err is the stream's failure, kept from the first response: a dial
	// error or a non-200 answer. Once set, Apply returns it and Close
	// returns at once.
	err error
}

// StartUpdates opens an update stream. Close it to end the session.
func (c *Client) StartUpdates(ctx context.Context) (*UpdateStream, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/updates", pr)
	if err != nil {
		pw.Close()
		return nil, err
	}
	req.Header.Set("Content-Type", "text/plain")
	s := &UpdateStream{pw: pw, ready: make(chan error, 1)}
	go func() {
		resp, err := c.hc.Do(req)
		if err != nil {
			s.ready <- err
			return
		}
		s.resp = resp
		s.ready <- nil
	}()
	return s, nil
}

// Apply sends one delta and waits for its ack. An ack with a non-empty
// Error field means the daemon rejected the delta (the stream stays
// usable); a returned error means the stream itself failed.
func (s *UpdateStream) Apply(d topology.Delta) (UpdateAck, error) {
	if s.err != nil {
		return UpdateAck{}, s.err
	}
	_, werr := io.WriteString(s.pw, d.Format()+"\n")
	// A failed write means the transport let go of the body; the first
	// response (or dial error) says why.
	if err := s.open(); err != nil {
		return UpdateAck{}, err
	}
	if werr != nil {
		return UpdateAck{}, werr
	}
	if !s.sc.Scan() {
		if err := s.sc.Err(); err != nil {
			return UpdateAck{}, err
		}
		return UpdateAck{}, io.ErrUnexpectedEOF
	}
	var ack UpdateAck
	if err := json.Unmarshal(s.sc.Bytes(), &ack); err != nil {
		return UpdateAck{}, fmt.Errorf("sched: decoding update ack: %w", err)
	}
	return ack, nil
}

// open waits for the first response once (the server sends its headers
// with the first ack) and keeps the outcome: a scanner over the acks, or
// the stream's error.
func (s *UpdateStream) open() error {
	if s.sc != nil || s.err != nil {
		return s.err
	}
	if s.err = <-s.ready; s.err != nil {
		return s.err
	}
	if s.resp.StatusCode != http.StatusOK {
		s.err = decodeError(s.resp)
		s.resp.Body.Close()
		return s.err
	}
	s.sc = bufio.NewScanner(s.resp.Body)
	return nil
}

// Close ends the update session and drains the response.
func (s *UpdateStream) Close() error {
	s.pw.Close()
	if s.open() != nil {
		return nil // the stream already failed; its body is closed
	}
	io.Copy(io.Discard, s.resp.Body)
	return s.resp.Body.Close()
}
