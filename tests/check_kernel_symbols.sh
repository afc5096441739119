#!/bin/sh
# Symbol hygiene of an ISA-specific kernel object:
#
#   check_kernel_symbols.sh NM ISA OBJECT...
#
# Lists the defined symbols of each OBJECT with `NM -C --defined-only` and
# fails when any global or weak one lies outside a namespace named ISA
# (e.g. evvo::core::detail::avx2::, evvo::common::simd::avx2::), or when no
# symbol lies inside one. A weak definition of shared inline code (a
# std:: template, a destructor of a tree type) compiled with the kernel's
# ISA flags may be the copy the linker keeps for baseline callers, which
# then crash on a CPU without that ISA; see src/core/dp_relax.hpp.
set -eu
if [ "$#" -lt 3 ]; then
  echo "usage: $0 NM ISA OBJECT..." >&2
  exit 2
fi
nm_bin=$1
isa=$2
shift 2
listing=$("$nm_bin" -C --defined-only "$@")
# Global (upper-case type) and weak/unique (V, W, u, v, w, i) definitions;
# the namespace test looks only at the part of the name before its first
# parameter list or template argument list. DW.ref.* entries are exempt:
# they are data pointers to the C++ personality routine (instrumented builds
# emit one), identical in every object and holding no code.
report=$(printf '%s\n' "$listing" | awk -v ns="::$isa::" '
  NF >= 3 && $2 ~ /^([A-Z]|[uvwi])$/ {
    name = $0
    sub(/^[^ ]* [^ ]* /, "", name)
    if (index(name, "DW.ref.") == 1) next
    head = name
    sub(/[(<].*$/, "", head)
    if (index(head, ns) > 0) inside++
    else { print "  " $2 " " name; outside++ }
  }
  END {
    if (outside > 0) exit 1
    if (inside == 0) { print "  (no symbol in a " ns " namespace)"; exit 1 }
  }') && exit 0
echo "symbols outside the $isa namespaces:" >&2
printf '%s\n' "$report" | head -n 40 >&2
exit 1
