package main

import (
	"strings"

	"paradigms/internal/sqlcheck"
)

// How a response is compared with its expected result.
const (
	// cmpOrdered compares row by row: the text's ORDER BY is total.
	// Every ORDER BY in this benchmark carries key tiebreakers (see
	// logical.SQLText), so "has an ORDER BY" means "is totally ordered".
	cmpOrdered = iota
	// cmpMultiset compares sqlcheck.Canon forms: engines may emit rows
	// in any order.
	cmpMultiset
	// cmpChecksum compares the row count and an order-independent sum of
	// row hashes: export results are too large to keep a sorted copy of
	// per request.
	cmpChecksum
)

// expect is the result a request must produce, computed by the oracle
// before timing starts.
type expect struct {
	mode  int
	rows  [][]int64 // cmpOrdered: in order; cmpMultiset: canonical
	count int64
	sum   uint64
}

// expectRows builds the comparison for a SQL text from the oracle rows.
func expectRows(text string, rows [][]int64) *expect {
	if strings.Contains(strings.ToLower(text), "order by") {
		return &expect{mode: cmpOrdered, rows: rows, count: int64(len(rows))}
	}
	return &expect{mode: cmpMultiset, rows: sqlcheck.Canon(rows), count: int64(len(rows))}
}

// expectChecksum builds the count-plus-checksum comparison.
func expectChecksum(rows [][]int64) *expect {
	return &expect{mode: cmpChecksum, count: int64(len(rows)), sum: checksum(rows)}
}

// checksum is the wrapping sum of the rows' hashes: it does not depend on
// row order, and it does depend on every value and its column.
func checksum(rows [][]int64) uint64 {
	var s uint64
	for _, r := range rows {
		s += rowHash(r)
	}
	return s
}

func rowHash(r []int64) uint64 {
	h := uint64(len(r))
	for _, v := range r {
		h = mix64(h ^ uint64(v))
	}
	return h
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// checker verifies one response row by row as the client decodes it,
// without keeping rows it does not need.
type checker struct {
	e     *expect
	n     int64
	sum   uint64
	bad   bool
	multi [][]int64
}

func (c *checker) row(r []int64) {
	switch c.e.mode {
	case cmpOrdered:
		if c.n >= int64(len(c.e.rows)) || !sameRow(r, c.e.rows[c.n]) {
			c.bad = true
		}
	case cmpMultiset:
		c.multi = append(c.multi, append([]int64(nil), r...))
	case cmpChecksum:
		c.sum += rowHash(r)
	}
	c.n++
}

// ok reports whether the rows seen so far are the whole expected result.
func (c *checker) ok() bool {
	if c.bad || c.n != c.e.count {
		return false
	}
	switch c.e.mode {
	case cmpMultiset:
		return sqlcheck.SameRows(sqlcheck.Canon(c.multi), c.e.rows)
	case cmpChecksum:
		return c.sum == c.e.sum
	}
	return true
}

// verify checks a materialized result.
func (e *expect) verify(rows [][]int64) bool {
	c := checker{e: e}
	for _, r := range rows {
		c.row(r)
	}
	return c.ok()
}

func sameRow(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
