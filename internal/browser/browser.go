// Package browser is a from-scratch headless web browser: it fetches pages
// over HTTP, maintains cookies, parses HTML into a DOM (internal/htmldom),
// resolves links, and fills and submits forms. It replaces the PhantomJS/
// WebKit engine the paper's crawler scripted (paper §4.3.1), providing the
// same capability surface the registration heuristics require.
package browser

import (
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/url"
	"strings"
	"unsafe"

	"tripwire/internal/htmldom"
)

// Page is one fetched document. A Page belongs to one goroutine: its DOM
// is parsed from Raw on the first DOM, Forms or Links call and kept.
type Page struct {
	URL        *url.URL // final URL after redirects
	StatusCode int
	Raw        string
	dom        *htmldom.Node
}

// DOM returns the parsed document.
func (p *Page) DOM() *htmldom.Node {
	if p.dom == nil {
		p.dom = htmldom.Parse(p.Raw)
	}
	return p.dom
}

// Link is an anchor on a page with its resolved destination.
type Link struct {
	URL  *url.URL
	Text string // visible anchor text ("" for image-only links)
	Node *htmldom.Node
}

// Client is a headless browser session. Construct with New; the zero value
// is not usable.
type Client struct {
	hc *http.Client
	// UserAgent is sent on every request.
	UserAgent string
	// MaxBodyBytes caps how much of a response body is read.
	MaxBodyBytes int64
	// uaValue is the cached one-element header value for UserAgent, shared
	// read-only across this session's requests.
	uaValue []string
}

// Option configures a Client.
type Option func(*Client)

// WithTransport sets the underlying RoundTripper (e.g. an in-process
// handler transport or a proxy-bound transport).
func WithTransport(rt http.RoundTripper) Option {
	return func(c *Client) { c.hc.Transport = rt }
}

// New returns a browser session with a fresh cookie jar.
func New(opts ...Option) *Client {
	jar, err := cookiejar.New(nil)
	if err != nil {
		panic(err) // cookiejar.New with nil options cannot fail
	}
	c := &Client{
		hc:           &http.Client{Jar: jar},
		UserAgent:    "Mozilla/5.0 (compatible; tripwire-crawler/1.0)",
		MaxBodyBytes: 4 << 20,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Get fetches the page at rawURL.
func (c *Client) Get(rawURL string) (*Page, error) {
	req, err := http.NewRequest(http.MethodGet, rawURL, nil)
	if err != nil {
		return nil, fmt.Errorf("browser: building request for %q: %w", rawURL, err)
	}
	return c.do(req)
}

// GetURL fetches a pre-resolved URL (e.g. from Page.Links), skipping the
// serialize-then-reparse round trip Get(u.String()) would pay per page.
func (c *Client) GetURL(u *url.URL) (*Page, error) {
	req := &http.Request{
		Method:     http.MethodGet,
		URL:        u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     make(http.Header),
		Host:       u.Host,
	}
	return c.do(req)
}

// Post submits an application/x-www-form-urlencoded POST.
func (c *Client) Post(rawURL string, form url.Values) (*Page, error) {
	req, err := http.NewRequest(http.MethodPost, rawURL, strings.NewReader(form.Encode()))
	if err != nil {
		return nil, fmt.Errorf("browser: building POST for %q: %w", rawURL, err)
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	return c.do(req)
}

func (c *Client) do(req *http.Request) (*Page, error) {
	// The header key is pre-canonical and the value slice is shared across
	// the session's requests, sparing a per-request one-element allocation.
	if c.uaValue == nil || c.uaValue[0] != c.UserAgent {
		c.uaValue = []string{c.UserAgent}
	}
	req.Header["User-Agent"] = c.uaValue
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("browser: fetch %s: %w", req.URL, err)
	}
	defer resp.Body.Close()
	raw, err := readBody(resp, c.MaxBodyBytes)
	if err != nil {
		return nil, fmt.Errorf("browser: reading %s: %w", req.URL, err)
	}
	return &Page{
		URL:        resp.Request.URL,
		StatusCode: resp.StatusCode,
		Raw:        raw,
	}, nil
}

// readBody drains the response body, capped at limit bytes. When the
// response declares its length — always true for the in-process handler
// transport — the buffer is sized exactly once instead of re-growing
// through io.ReadAll's append cycle on every page, and is aliased into the
// returned string without a second copy (the buffer never escapes, so
// nothing can mutate it afterwards).
func readBody(resp *http.Response, limit int64) (string, error) {
	if n := resp.ContentLength; n >= 0 && n <= limit {
		buf := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, buf); err != nil {
			return "", err
		}
		return unsafe.String(unsafe.SliceData(buf), len(buf)), nil
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	return string(b), err
}

// Links returns every anchor on the page with a resolvable href.
func (p *Page) Links() []Link {
	var out []Link
	for _, a := range p.DOM().ElementsByTag("a") {
		href, ok := a.Attr("href")
		if !ok || href == "" || strings.HasPrefix(href, "javascript:") || strings.HasPrefix(href, "#") {
			continue
		}
		u, err := p.URL.Parse(href)
		if err != nil {
			continue
		}
		out = append(out, Link{URL: u, Text: a.Text(), Node: a})
	}
	return out
}

// OK reports whether the page loaded with a 2xx status.
func (p *Page) OK() bool { return p.StatusCode >= 200 && p.StatusCode < 300 }
