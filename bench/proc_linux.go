//go:build linux

package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent has the kernel SIGKILL the child should this process
// die without reaping it (a SIGKILLed benchmark cannot run handlers).
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
