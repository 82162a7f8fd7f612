// Package deadcode is a fixture for the dead-code walk behind
// TestNoTestOnlyExportedAPI; TestDeadCodeWalk checks what the walk finds
// here. It is type-checked, never built.
package deadcode

import (
	"fmt"
	"net/http"
	"sort"
)

// Root is reachable: a package-level var initialiser is a root.
var Root = start()

func start() fmt.Stringer {
	r := &record{read: 1, written: 2}
	_ = &http.Client{Transport: transport{}}
	_ = shelf{}
	sort.Ints(nil) // brings sort.Interface into view
	return label(fmt.Sprint(r.read))
}

// record's written field is written above and never read.
type record struct{ read, written int }

// label's String method satisfies fmt.Stringer, so it stays although
// nothing calls it; Unused satisfies nothing.
type label string

func (l label) String() string { return string(l) }

func (l label) Unused() {}

// transport's RoundTrip method satisfies http.RoundTripper.
type transport struct{}

func (transport) RoundTrip(*http.Request) (*http.Response, error) { return nil, nil }

// shelf is reachable and its Len has the signature of sort.Interface's,
// but shelf has no Less or Swap: it is no sort.Interface, so Len is dead.
type shelf struct{}

func (shelf) Len() int { return 0 }

// deadCaller is unreachable, so the callee it calls is too.
func deadCaller() { callee() }

func callee() {}

// Kept reaches keptCallee only when an allowlist entry makes it a root.
func Kept() { keptCallee() }

func keptCallee() {}
