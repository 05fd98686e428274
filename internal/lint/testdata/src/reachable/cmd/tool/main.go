// Command tool is the miniature module's command: main is a root.
package main

import "reachmod/lib"

func main() { lib.Run() }
