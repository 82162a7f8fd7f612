package campaignd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
)

// ErrCampaignGone means the server no longer serves the named campaign
// (cancelled, or an unknown ID): the call will never succeed, so transport
// retry loops must not ride it out.
var ErrCampaignGone = errors.New("campaignd: campaign gone")

// Client speaks the canfuzzd worker protocol (the campsrv /campaignd/
// routes, every call but Lease scoped by a campaign ID). Methods return
// transport errors verbatim so the worker's retry loop can distinguish
// "the server is briefly down — keep trying, it may be resuming from its
// journal" from protocol errors that will not heal.
type Client struct {
	// Base is the server URL, e.g. "http://127.0.0.1:9990".
	Base string
	// Token, when non-empty, is sent as a bearer token on every call
	// (canfuzzd -auth-token). mTLS remains future work; see DESIGN §12.
	Token string
	// HTTP is the client used for every call (default http.DefaultClient).
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string, query url.Values) string {
	return strings.TrimSuffix(c.Base, "/") + path + "?" + query.Encode()
}

// do issues one request with the auth header attached.
func (c *Client) do(method, url, contentType string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	return c.http().Do(req)
}

// API issues one request against the service's client API at path (such
// as "/campaigns"), sending body, when non-nil, as JSON, and returns the
// response body. A status other than want is an error carrying the status
// and the start of the body.
func (c *Client) API(method, path string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	contentType := ""
	if body != nil {
		rd, contentType = bytes.NewReader(body), "application/json"
	}
	resp, err := c.do(method, strings.TrimSuffix(c.Base, "/")+path, contentType, rd)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw[:min(len(raw), 4096)]))
	}
	return raw, nil
}

// Spec fetches and validates a campaign spec.
func (c *Client) Spec(campaign string) (CampaignSpec, error) {
	var spec CampaignSpec
	resp, err := c.do(http.MethodGet, c.url("/campaignd/spec", url.Values{"campaign": {campaign}}), "", nil)
	if err != nil {
		return spec, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone, http.StatusNotFound:
		return spec, fmt.Errorf("%w: spec %q: %s", ErrCampaignGone, campaign, resp.Status)
	default:
		return spec, fmt.Errorf("campaignd: spec: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&spec); err != nil {
		return spec, fmt.Errorf("campaignd: spec body: %w", err)
	}
	return spec, spec.Validate()
}

// Lease asks for a trial assignment; a granted lease carries the campaign
// ID the trial belongs to.
func (c *Client) Lease(worker string) (Lease, error) {
	resp, err := c.do(http.MethodPost, c.url("/campaignd/lease", url.Values{"worker": {worker}}), "", nil)
	if err != nil {
		return Lease{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Lease{}, fmt.Errorf("campaignd: lease: %s", resp.Status)
	}
	var wl wireLease
	if err := json.NewDecoder(resp.Body).Decode(&wl); err != nil {
		return Lease{}, fmt.Errorf("campaignd: lease body: %w", err)
	}
	return leaseFromWire(wl), nil
}

// Heartbeat extends a lease; ErrLeaseGone when it is no longer current,
// ErrCampaignGone when its whole campaign is.
func (c *Client) Heartbeat(campaign string, leaseID uint64) error {
	q := url.Values{"campaign": {campaign}, "lease": {strconv.FormatUint(leaseID, 10)}}
	resp, err := c.do(http.MethodPost, c.url("/campaignd/heartbeat", q), "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil
	case http.StatusGone:
		return ErrLeaseGone
	case http.StatusNotFound:
		return fmt.Errorf("%w: heartbeat: %s", ErrCampaignGone, resp.Status)
	default:
		return fmt.Errorf("campaignd: heartbeat: %s", resp.Status)
	}
}

// Submit posts a completed trial's serialised result. A duplicate (the
// server already accepted this trial from someone) is success: the work is
// durably recorded either way. A 410 — the campaign was cancelled while
// the trial computed — comes back as ack.Gone with a nil error: the result
// has nowhere to go, which is an outcome, not a transport failure to
// retry. The ack's CampaignDone/Done flags drive the worker's re-poll-vs-
// exit decision; see SubmitAck.
func (c *Client) Submit(campaign string, index int, leaseID uint64, worker string, resultJSON []byte) (SubmitAck, error) {
	q := url.Values{
		"campaign": {campaign},
		"trial":    {strconv.Itoa(index)},
		"lease":    {strconv.FormatUint(leaseID, 10)},
		"worker":   {worker},
	}
	resp, err := c.do(http.MethodPost, c.url("/campaignd/result", q),
		"application/json", bytes.NewReader(resultJSON))
	if err != nil {
		return SubmitAck{}, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone, http.StatusNotFound:
		return SubmitAck{Gone: true}, nil
	default:
		return SubmitAck{}, fmt.Errorf("campaignd: result: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var ack SubmitAck
	if err := json.Unmarshal(body, &ack); err != nil {
		return SubmitAck{}, fmt.Errorf("campaignd: result ack: %w", err)
	}
	return ack, nil
}
