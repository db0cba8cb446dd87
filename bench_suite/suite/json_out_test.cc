// Byte-exact checks of the artifact writer on hostile keys and values: every
// character JSON reserves is escaped, and non-finite numbers become null.
// Exits nonzero on the first mismatch.
#include <cstdio>
#include <limits>
#include <string>

#include "suite/json_out.h"

namespace {

int failures = 0;

void expect(const std::string& got, const std::string& want,
            const char* what) {
  if (got == want) return;
  ++failures;
  std::fprintf(stderr, "FAIL %s\n  got:  %s\n  want: %s\n", what, got.c_str(),
               want.c_str());
}

std::string escaped(std::string_view s) {
  std::string out;
  xphi::bench::append_escaped(out, s);
  return out;
}

}  // namespace

int main() {
  using xphi::bench::JsonWriter;

  expect(escaped("plain"), "\"plain\"", "plain string");
  expect(escaped("say \"hi\""), "\"say \\\"hi\\\"\"", "double quote");
  expect(escaped("C:\\dir\\"), "\"C:\\\\dir\\\\\"", "backslash");
  expect(escaped("a\nb\tc\rd\be\ff"), "\"a\\nb\\tc\\rd\\be\\ff\"",
         "short control escapes");
  expect(escaped(std::string("nul\0x", 5)), "\"nul\\u0000x\"", "NUL byte");
  expect(escaped("\x01\x1f"), "\"\\u0001\\u001f\"", "other control bytes");
  expect(escaped("\x7f"), "\"\x7f\"", "DEL passes through");
  expect(escaped("\xc3\xa9"), "\"\xc3\xa9\"", "UTF-8 passes through");
  expect(escaped("</script>"), "\"</script>\"", "slash left alone");

  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  JsonWriter w;
  w.begin_object()
      .field("k\"ey", "v\\al\n")
      .field("inf", inf)
      .field("-inf", -inf)
      .field("nan", nan)
      .field("third", 1.0 / 3.0)
      .field("count", 12)
      .field("flag", true)
      .key("list")
      .begin_array()
      .value(1.5)
      .value("\x1b[0m")
      .begin_object()
      .end_object()
      .end_array()
      .end_object();
  expect(w.str(),
         "{\"k\\\"ey\": \"v\\\\al\\n\", \"inf\": null, \"-inf\": null, "
         "\"nan\": null, \"third\": 0.33333333333333331, \"count\": 12, "
         "\"flag\": true, \"list\": [1.5, \"\\u001b[0m\", {}]}",
         "document");

  if (failures == 0) std::printf("json_out: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
