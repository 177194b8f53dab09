/**
 * @file
 * Reference translation unit: TranslationUnit's walk without its
 * memos, for differential tests.
 *
 * Every data access probes the DERAT, every fetch the IERAT; an ERAT
 * miss probes the SLB and the unified TLB. It drives src/'s Erat, Tlb
 * and Slb, so what it checks is the memo layer in front of them: the
 * tests in translation_unit_test.cc require every outcome of the
 * memoized unit to match this one.
 */

#ifndef JASIM_TESTS_XLAT_REFERENCE_TRANSLATION_H
#define JASIM_TESTS_XLAT_REFERENCE_TRANSLATION_H

#include "xlat/address_space.h"
#include "xlat/erat.h"
#include "xlat/tlb.h"
#include "xlat/translation_unit.h"

namespace jasim::ref {

/** One core's translation state on the plain walk. */
class TranslationUnit
{
  public:
    TranslationUnit(const XlatConfig &config, const AddressSpace &space);

    XlatOutcome translateData(Addr addr)
    {
        return translate(derat_, addr, true);
    }
    XlatOutcome translateInst(Addr addr)
    {
        return translate(ierat_, addr, false);
    }

    void flush();

  private:
    XlatConfig config_;
    const AddressSpace &space_;
    Erat ierat_;
    Erat derat_;
    Tlb tlb_;
    Slb slb_;

    XlatOutcome translate(Erat &erat, Addr addr, bool is_load);
};

} // namespace jasim::ref

#endif // JASIM_TESTS_XLAT_REFERENCE_TRANSLATION_H
