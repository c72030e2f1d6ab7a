//go:build !linux

package main

import "time"

// sleepUntil sleeps an open-loop client until its due time, at the Go
// timer's precision.
func sleepUntil(due time.Time) { time.Sleep(time.Until(due)) }
