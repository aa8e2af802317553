// Completion-path ablations around two remarks in the paper:
//
//  1. Section VI: "we also attempted target offloading, but this only
//     appeared to reduce CPU usage and did not affect latency" — we flip
//     the target's hardware_offload knob and show the tiny latency delta.
//  2. Section V/VI: the paper's driver "relies on polling instead of using
//     interrupts". This bench quantifies the interrupt tax by running the
//     stock local driver both ways: MSI-X completion vs CQ polling.
#include <cstdio>

#include "bench_util.hpp"

namespace {

using namespace nvmeshare;
using namespace nvmeshare::bench;

constexpr std::uint64_t kOps = 10'000;

double nvmeof_median_us(bool offload) {
  TestbedConfig cfg = default_bench_testbed(2, fabric::SubstrateKind::ntb);
  Scenario s;
  s.name = offload ? "nvmeof-offload" : "nvmeof-software";
  s.testbed = std::make_unique<Testbed>(cfg);
  nvmeof::Target::Config tc;
  tc.hardware_offload = offload;
  auto target = s.testbed->wait(nvmeof::Target::start(
      s.testbed->cluster(), s.testbed->nvme_endpoint(), s.testbed->network(), tc));
  if (!target) die("target", target.status());
  s.target = std::move(*target);
  auto initiator = s.testbed->wait(nvmeof::Initiator::connect(
      s.testbed->cluster(), s.testbed->network(), *s.target, 1, {}));
  if (!initiator) die("initiator", initiator.status());
  s.initiator = std::move(*initiator);
  s.device = s.initiator.get();
  s.workload_node = 1;
  auto result = run(s, fio_qd1(true, kOps));
  return result.read_latency.percentile(50) / 1000.0;
}

double local_median_us(bool use_interrupts) {
  TestbedConfig cfg = default_bench_testbed(1, fabric::SubstrateKind::ntb);
  Scenario s;
  s.name = use_interrupts ? "local-msix" : "local-polled";
  s.testbed = std::make_unique<Testbed>(cfg);
  driver::LocalDriver::Config lc;
  lc.use_interrupts = use_interrupts;
  auto drv = s.testbed->wait(driver::LocalDriver::start(
      s.testbed->cluster(), s.testbed->nvme_endpoint(),
      use_interrupts ? &s.testbed->irq(0) : nullptr, lc));
  if (!drv) die("local driver", drv.status());
  s.local = std::move(*drv);
  s.device = s.local.get();
  s.workload_node = 0;
  auto result = run(s, fio_qd1(true, kOps));
  return result.read_latency.percentile(50) / 1000.0;
}

}  // namespace

int main() {
  print_header("completion-path ablations (4 KiB randread, QD=1)");

  const double sw = nvmeof_median_us(false);
  const double hw = nvmeof_median_us(true);
  std::printf("NVMe-oF target:   software %.2f us | hardware offload %.2f us "
              "(saves %.2f us, %.1f%%)\n",
              sw, hw, sw - hw, (sw - hw) / sw * 100.0);

  const double irq = local_median_us(true);
  const double polled = local_median_us(false);
  std::printf("local completion: MSI-X    %.2f us | CQ polling       %.2f us "
              "(polling saves %.2f us)\n",
              irq, polled, irq - polled);

  print_header("claim checks");
  bool ok = true;
  auto check = [&](const char* what, bool cond) {
    std::printf("  [%s] %s\n", cond ? "ok" : "MISMATCH", what);
    ok &= cond;
  };
  check("target offloading 'did not affect latency' (saves < 10%)",
        (sw - hw) / sw < 0.10);
  check("offloading still saves a little (it does remove some software)", hw < sw);
  check("polling beats interrupts by roughly the irq-delivery cost (1..3 us)",
        irq - polled > 1.0 && irq - polled < 3.0);
  std::printf("\n%s\n", ok ? "ALL CLAIM CHECKS PASSED" : "SOME CLAIM CHECKS FAILED");
  return ok ? 0 : 1;
}
