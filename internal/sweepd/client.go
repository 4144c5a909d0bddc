package sweepd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client speaks the coordinator protocol over HTTP; both workers and the
// submitting CLI use it.
type Client struct {
	base string
	http *http.Client
}

// ErrLeaseGone reports that the coordinator no longer recognizes a lease
// (it expired or was completed by another worker); the holder must abandon
// the partition rather than retry.
var ErrLeaseGone = errors.New("sweepd: lease gone")

// NewClient opens a client for the coordinator at base (e.g.
// "http://127.0.0.1:8080"). A nil httpClient uses a dedicated client with
// a conservative timeout.
func NewClient(base string, httpClient *http.Client) (*Client, error) {
	if base == "" {
		return nil, errors.New("sweepd: coordinator URL must not be empty")
	}
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 30 * time.Second}
	}
	return &Client{base: strings.TrimRight(base, "/"), http: httpClient}, nil
}

// call POSTs (or GETs, body nil) one protocol message and decodes the
// response into out (when non-nil). Non-2xx answers decode the protocol
// error body; 404/409 on lease endpoints surface as ErrLeaseGone.
func (c *Client) call(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("sweepd: encoding %s: %w", path, err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("sweepd: %s: %w", path, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("sweepd: %s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return fmt.Errorf("sweepd: reading %s response: %w", path, err)
	}
	if resp.StatusCode == http.StatusConflict || resp.StatusCode == http.StatusNotFound {
		if strings.Contains(path, "/v1/lease/") {
			return fmt.Errorf("%w: %s", ErrLeaseGone, strings.TrimSpace(string(data)))
		}
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e errorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("sweepd: %s: %s", path, e.Error)
		}
		return fmt.Errorf("sweepd: %s: unexpected status %s", path, resp.Status)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("sweepd: decoding %s response: %w", path, err)
	}
	return nil
}

// Submit sends a sweep and returns its id.
func (c *Client) Submit(req SubmitRequest) (string, error) {
	req.Version = ProtocolVersion
	var resp SubmitResponse
	if err := c.call(http.MethodPost, "/v1/sweeps", req, &resp); err != nil {
		return "", err
	}
	return resp.ID, nil
}

// Lease polls for work.
func (c *Client) Lease(worker string) (LeaseResponse, error) {
	var resp LeaseResponse
	err := c.call(http.MethodPost, "/v1/lease", LeaseRequest{Version: ProtocolVersion, Worker: worker}, &resp)
	if err != nil {
		return LeaseResponse{}, err
	}
	if resp.Version != ProtocolVersion {
		return LeaseResponse{}, fmt.Errorf("sweepd: coordinator speaks protocol %d, want %d", resp.Version, ProtocolVersion)
	}
	return resp, nil
}

// Heartbeat renews a lease. ErrLeaseGone means the coordinator reclaimed
// it and the worker must abandon the partition.
func (c *Client) Heartbeat(leaseID string) error {
	return c.call(http.MethodPost, "/v1/lease/"+leaseID+"/heartbeat", struct{}{}, nil)
}

// Results submits a lease's result set and the worker's cost table.
func (c *Client) Results(leaseID string, sub ResultSubmission) error {
	sub.Version = ProtocolVersion
	return c.call(http.MethodPost, "/v1/lease/"+leaseID+"/results", sub, nil)
}

// Fail reports that a lease could not be run.
func (c *Client) Fail(leaseID, msg string) error {
	return c.call(http.MethodPost, "/v1/lease/"+leaseID+"/fail", FailRequest{Version: ProtocolVersion, Error: msg}, nil)
}

// Ready reports whether the coordinator answers its readiness probe —
// false while it replays its journal after a restart (and on transport
// errors, which pollers treat the same way: not ready yet).
func (c *Client) Ready() bool {
	resp, err := c.http.Get(c.base + ReadyPath)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
	return resp.StatusCode == http.StatusOK
}

// Status fetches the whole-service status.
func (c *Client) Status() (CoordinatorStatus, error) {
	var st CoordinatorStatus
	err := c.call(http.MethodGet, "/v1/status", nil, &st)
	return st, err
}

// SweepStatus fetches one sweep's status.
func (c *Client) SweepStatus(id string) (SweepStatus, error) {
	var st SweepStatus
	err := c.call(http.MethodGet, "/v1/sweeps/"+id, nil, &st)
	return st, err
}

// SweepResults fetches a sweep's completed scenarios so far.
func (c *Client) SweepResults(id string) (ResultsResponse, error) {
	var resp ResultsResponse
	err := c.call(http.MethodGet, "/v1/sweeps/"+id+"/results", nil, &resp)
	return resp, err
}
