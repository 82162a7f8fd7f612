package uds

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/isotp"
)

// Client errors.
var (
	ErrClientBusy = errors.New("uds: request already outstanding")
	ErrTimeout    = errors.New("uds: response timeout")
	ErrShortReply = errors.New("uds: short or mismatched response")
)

// responseTimeout is the client-side P2* budget for a server reply.
const responseTimeout = 2 * time.Second

// Callback receives the positive response payload (service byte stripped)
// or an error. Exactly one of data/err is meaningful.
type Callback func(data []byte, err error)

// Client is the tester side of UDS. All methods are asynchronous and
// deliver their result through a Callback, consistent with the
// single-threaded event simulation.
type Client struct {
	sched *clock.Scheduler
	ep    *isotp.Endpoint

	pendingSvc byte
	cb         Callback
	timer      *clock.Timer
}

// NewClient creates a client speaking through the given ISO-TP endpoint.
// Wire HandleResponse as the endpoint's onMessage callback.
func NewClient(sched *clock.Scheduler, ep *isotp.Endpoint) *Client {
	if sched == nil || ep == nil {
		panic("uds: nil scheduler or endpoint")
	}
	return &Client{sched: sched, ep: ep}
}

func (c *Client) request(svc byte, payload []byte, cb Callback) error {
	if c.cb != nil {
		return ErrClientBusy
	}
	req := append([]byte{svc}, payload...)
	if err := c.ep.Send(req); err != nil {
		return fmt.Errorf("uds: send request %#02x: %w", svc, err)
	}
	c.pendingSvc = svc
	c.cb = cb
	c.timer = c.sched.After(responseTimeout, func() {
		cb := c.cb
		c.clear()
		if cb != nil {
			cb(nil, ErrTimeout)
		}
	})
	return nil
}

func (c *Client) clear() {
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	c.cb = nil
	c.pendingSvc = 0
}

// HandleResponse processes a server reply payload.
func (c *Client) HandleResponse(resp []byte) {
	if c.cb == nil || len(resp) == 0 {
		return
	}
	svc := c.pendingSvc
	cb := c.cb
	switch {
	case resp[0] == negativeResponseID:
		if len(resp) < 3 || resp[1] != svc {
			return // negative response for someone else; keep waiting
		}
		c.clear()
		cb(nil, &NegativeError{Service: svc, Code: resp[2]})
	case resp[0] == svc+positiveOffset:
		c.clear()
		cb(resp[1:], nil)
	default:
		// Unrelated broadcast (e.g. a periodic frame routed here); ignore.
	}
}

// ChangeSession requests a diagnostic session change.
func (c *Client) ChangeSession(session byte, cb Callback) error {
	return c.request(SvcSessionControl, []byte{session}, cb)
}

// WriteDID writes a data identifier.
func (c *Client) WriteDID(did DID, value []byte, cb Callback) error {
	req := make([]byte, 2+len(value))
	binary.BigEndian.PutUint16(req[:2], uint16(did))
	copy(req[2:], value)
	return c.request(SvcWriteDID, req, cb)
}

// RequestSeed asks for a security seed at the given level.
func (c *Client) RequestSeed(level byte, cb Callback) error {
	return c.request(SvcSecurityAccess, []byte{level}, func(data []byte, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		if len(data) < 1 {
			cb(nil, ErrShortReply)
			return
		}
		cb(data[1:], nil) // strip sub-function echo
	})
}

// SendKey submits the computed key for the given level.
func (c *Client) SendKey(level byte, key []byte, cb Callback) error {
	return c.request(SvcSecurityAccess, append([]byte{level + 1}, key...), cb)
}

// Unlock performs the full seed/key handshake using keyFromSeed to derive
// the key (the tester's knowledge of the algorithm).
func (c *Client) Unlock(level byte, keyFromSeed func([]byte) []byte, cb Callback) error {
	return c.RequestSeed(level, func(seed []byte, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		if err := c.SendKey(level, keyFromSeed(seed), cb); err != nil {
			cb(nil, err)
		}
	})
}
