package campaignd

import "time"

// SetNow replaces the wall clock a lease book reads, so tests step time
// instead of sleeping through lease TTLs and redispatch backoff.
func SetNow(c *Coordinator, now func() time.Time) { c.now = now }

// Redispatch is the expired-lease backoff policy.
var Redispatch = redispatch
