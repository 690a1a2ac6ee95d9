//go:build !linux

package main

import "errors"

var errNoIdleClass = errors.New("no idle scheduling class on this system")

func allowedCPUs() ([]int, error) { return nil, errNoIdleClass }

func idleClassOn(int) error { return errNoIdleClass }
