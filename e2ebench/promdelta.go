package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSnapshot is one scrape of a Prometheus text exposition: sample
// value by full series name (metric name plus its label set, as exposed).
type promSnapshot map[string]float64

// parseProm reads the text exposition format: comment and blank lines
// are skipped, every other line is `name[{labels}] value [timestamp]`.
// Label values may hold spaces, so the series name ends at the closing
// brace when there is one.
func parseProm(r io.Reader) (promSnapshot, error) {
	snap := promSnapshot{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		cut := strings.IndexByte(text, ' ')
		if brace := strings.IndexByte(text, '{'); brace >= 0 && (cut < 0 || brace < cut) {
			end := strings.LastIndexByte(text, '}')
			if end < brace {
				return nil, fmt.Errorf("metrics line %d: unterminated label set", line)
			}
			cut = end + 1
		}
		if cut <= 0 || cut >= len(text) {
			return nil, fmt.Errorf("metrics line %d: no value", line)
		}
		fields := strings.Fields(text[cut:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line %d: no value", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		snap[text[:cut]] = v
	}
	return snap, sc.Err()
}

// sum adds every series of metric name, across all label sets.
func (s promSnapshot) sum(name string) float64 {
	total := 0.0
	for series, v := range s {
		if series == name || (strings.HasPrefix(series, name) && series[len(name)] == '{') {
			total += v
		}
	}
	return total
}

// promDelta is the change of every summed metric between two scrapes.
type promDelta struct{ before, after promSnapshot }

// get returns the change of metric name (all label sets summed). A metric
// absent from a scrape reads 0 there: the program creates some series
// only on first use.
func (d promDelta) get(name string) float64 { return d.after.sum(name) - d.before.sum(name) }

// scrapeProm fetches and parses base+"/metrics".
func scrapeProm(hc *http.Client, base string) (promSnapshot, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}
