package campaignd

import "time"

// wireLease is the JSON body of a lease decision; durations travel as
// integral milliseconds.
type wireLease struct {
	Status       string `json:"status"`
	Campaign     string `json:"campaign,omitempty"`
	Trial        int    `json:"trial"`
	Seed         int64  `json:"seed"`
	LeaseID      uint64 `json:"leaseId"`
	LeaseMs      int64  `json:"leaseMs"`
	RetryAfterMs int64  `json:"retryAfterMs"`
}

// SubmitAck is the result-submission response. CampaignDone means the
// submitted trial's campaign drained — the worker re-polls, because the
// scheduler may hold other campaigns. Done means the server has no work
// left, ever (it is shutting down) — the worker exits.
type SubmitAck struct {
	Accepted     bool `json:"accepted"`
	Duplicate    bool `json:"duplicate,omitempty"`
	CampaignDone bool `json:"campaignDone,omitempty"`
	Done         bool `json:"done,omitempty"`
	// Gone is set client-side on 410: the campaign no longer exists
	// (cancelled); the result is dropped, not an error.
	Gone bool `json:"-"`
}

// WireLease converts a lease decision to its wire body, the document the
// campsrv lease endpoint answers with.
func WireLease(l Lease) any {
	return wireLease{
		Status: l.Status, Campaign: l.Campaign, Trial: l.Trial, Seed: l.Seed,
		LeaseID:      l.ID,
		LeaseMs:      l.TTL.Milliseconds(),
		RetryAfterMs: l.RetryAfter.Milliseconds(),
	}
}

// leaseFromWire converts the JSON body back to a Lease (client side).
func leaseFromWire(wl wireLease) Lease {
	return Lease{
		Status: wl.Status, Campaign: wl.Campaign,
		Trial: wl.Trial, Seed: wl.Seed, ID: wl.LeaseID,
		TTL:        time.Duration(wl.LeaseMs) * time.Millisecond,
		RetryAfter: time.Duration(wl.RetryAfterMs) * time.Millisecond,
	}
}
