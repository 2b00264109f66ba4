// Package retryfix is a wclint fixture: positive, negative, and
// escape-hatch cases for the retryhygiene analyzer. The package opts in
// with the directive below instead of appearing in the built-in list.
//
//wclint:retryclient
package retryfix

import (
	"context"
	"net/http"
	"time"
)

var client = &http.Client{}

func convenience(url string) {
	resp, _ := http.Get(url) // want `http\.Get hard-wires context\.Background`
	_ = resp
}

func bareRequest(url string) {
	req, _ := http.NewRequest("GET", url, nil) // want `http\.NewRequest carries context\.Background`
	_ = req
}

func bareContext(url string) {
	req, _ := http.NewRequestWithContext(context.Background(), "GET", url, nil) // want `no deadline`
	_ = req
}

func nakedDo(req *http.Request) {
	resp, _ := client.Do(req) // want `outside the retry policy`
	_ = resp
}

// do is this fixture's sanctioned transport funnel.
//
//wclint:retry-core
func do(fn func(attempt int) error) error {
	return fn(0)
}

// blessed sends inside a retry-core function: allowed.
//
//wclint:retry-core
func blessed(req *http.Request) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// throughFunnel sends inside a literal passed directly to the funnel:
// allowed.
func throughFunnel(req *http.Request) error {
	return do(func(attempt int) error {
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		return resp.Body.Close()
	})
}

// watchdog shows the sanctioned escape: a reasoned hatch.
func watchdog(req *http.Request) {
	//wclint:retry-ok SSE stream; lifetime is governed by an inactivity watchdog, not a deadline
	resp, _ := client.Do(req)
	_ = resp
}

// emptyHatch shows a hatch without a reason: it suppresses nothing and
// is itself reported.
func emptyHatch(req *http.Request) {
	/* want `needs a reason` */ //wclint:retry-ok
	resp, _ := client.Do(req)   // want `outside the retry policy`
	_ = resp
}

// deadline builds the request the sanctioned way: context.Background is
// fine as the PARENT of a timeout-deriving context.
func deadline(url string) (*http.Request, context.CancelFunc, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	return req, cancel, err
}

// transport shows a method funnel, the shape the coordinator uses.
type transport struct{ client *http.Client }

//wclint:retry-core
func (t *transport) send(fn func() error) error { return fn() }

// viaMethodFunnel sends inside a literal passed directly to the method
// funnel: allowed.
func (t *transport) viaMethodFunnel(req *http.Request) error {
	return t.send(func() error {
		_, err := t.client.Do(req)
		return err
	})
}

// sibling shares the funnel's receiver but is no funnel: still flagged.
func (t *transport) sibling(req *http.Request) {
	resp, _ := t.client.Do(req) // want `outside the retry policy`
	_ = resp
}
