//go:build race

package maint

func init() { raceEnabled = true }
