/** @file Unit tests for the BIR instruction set and Program container. */

#include <gtest/gtest.h>

#include "bir/bir.hh"

namespace scamv::bir {
namespace {

TEST(Instr, SourceRegsPerKind)
{
    EXPECT_EQ(Instr::alu(AluOp::Add, 1, 2, 3).sourceRegs(),
              (std::vector<Reg>{2, 3}));
    EXPECT_EQ(Instr::aluImm(AluOp::Add, 1, 2, 5).sourceRegs(),
              (std::vector<Reg>{2}));
    EXPECT_EQ(Instr::movImm(1, 5).sourceRegs(), (std::vector<Reg>{}));
    EXPECT_EQ(Instr::load(1, 2, 3).sourceRegs(),
              (std::vector<Reg>{2, 3}));
    EXPECT_EQ(Instr::store(1, 2, 3).sourceRegs(),
              (std::vector<Reg>{1, 2, 3}));
    EXPECT_EQ(Instr::branch(CmpOp::Eq, 4, 5, 0).sourceRegs(),
              (std::vector<Reg>{4, 5}));
    EXPECT_EQ(Instr::jump(0).sourceRegs(), (std::vector<Reg>{}));
}

TEST(Instr, DestRegPerKind)
{
    EXPECT_EQ(Instr::alu(AluOp::Add, 1, 2, 3).destReg(), 1);
    EXPECT_EQ(Instr::movImm(4, 9).destReg(), 4);
    EXPECT_EQ(Instr::load(6, 2, 3).destReg(), 6);
    EXPECT_EQ(Instr::store(1, 2, 3).destReg(), -1);
    EXPECT_EQ(Instr::branch(CmpOp::Eq, 1, 2, 0).destReg(), -1);
    EXPECT_EQ(Instr::halt().destReg(), -1);
}

TEST(Instr, MemAccessFlag)
{
    EXPECT_TRUE(Instr::load(1, 2, 3).isMemAccess());
    EXPECT_TRUE(Instr::storeImm(1, 2, 8).isMemAccess());
    EXPECT_FALSE(Instr::alu(AluOp::Add, 1, 2, 3).isMemAccess());
}

TEST(NegateCmp, IsInvolution)
{
    for (CmpOp op : {CmpOp::Eq, CmpOp::Ne, CmpOp::Ult, CmpOp::Ule,
                     CmpOp::Ugt, CmpOp::Uge, CmpOp::Slt, CmpOp::Sle,
                     CmpOp::Sgt, CmpOp::Sge})
        EXPECT_EQ(negateCmp(negateCmp(op)), op);
}

TEST(Program, ValidateAcceptsWellFormed)
{
    Program p;
    p.push(Instr::load(1, 0, 2));
    p.push(Instr::branchImm(CmpOp::Eq, 1, 0, 3));
    p.push(Instr::alu(AluOp::Add, 1, 1, 1));
    p.push(Instr::halt());
    EXPECT_EQ(p.validate(), "");
}

TEST(Program, ValidateRejectsEmpty)
{
    EXPECT_NE(Program().validate(), "");
}

TEST(Program, ValidateRejectsMissingTerminator)
{
    Program p;
    p.push(Instr::movImm(0, 1));
    EXPECT_NE(p.validate(), "");
}

TEST(Program, ValidateRejectsBadTarget)
{
    Program p;
    p.push(Instr::branchImm(CmpOp::Eq, 0, 0, 99));
    p.push(Instr::halt());
    EXPECT_NE(p.validate(), "");
}

TEST(Program, ValidateAcceptsBranchToEnd)
{
    Program p;
    p.push(Instr::branchImm(CmpOp::Eq, 0, 0, 2));
    p.push(Instr::halt());
    EXPECT_EQ(p.validate(), "");
}

TEST(Program, ValidateRejectsBadRegister)
{
    Program p;
    p.push(Instr::load(40, 0, 1)); // x40 out of range
    p.push(Instr::halt());
    EXPECT_NE(p.validate(), "");
}

TEST(Program, ValidateMessagesAreExact)
{
    // Every failure kind, with the instruction index in the prefix
    // where there is one.
    EXPECT_EQ(Program().validate(), "empty program");

    Program src;
    src.push(Instr::movImm(0, 1));
    src.push(Instr::alu(AluOp::Add, 1, 2, -1)); // x-1 read
    src.push(Instr::halt());
    EXPECT_EQ(src.validate(), "instr 1: source register out of range");

    Program store_value;
    store_value.push(Instr::storeImm(kNumRegs, 0, 8)); // value reg read
    store_value.push(Instr::halt());
    EXPECT_EQ(store_value.validate(),
              "instr 0: source register out of range");

    Program dst;
    dst.push(Instr::movImm(0, 1));
    dst.push(Instr::movImm(1, 2));
    dst.push(Instr::movImm(kNumRegs, 3));
    dst.push(Instr::halt());
    EXPECT_EQ(dst.validate(),
              "instr 2: destination register out of range");

    Program target;
    target.push(Instr::jump(-1));
    EXPECT_EQ(target.validate(), "instr 0: target out of range");

    Program branch_target;
    branch_target.push(Instr::movImm(0, 1));
    branch_target.push(Instr::branchImm(CmpOp::Eq, 0, 0, 4));
    branch_target.push(Instr::halt());
    EXPECT_EQ(branch_target.validate(), "instr 1: target out of range");

    Program open;
    open.push(Instr::movImm(0, 1));
    open.push(Instr::movImm(1, 2));
    EXPECT_EQ(open.validate(), "last instruction does not terminate");
}

TEST(Program, UsedRegsSortedUnique)
{
    Program p;
    p.push(Instr::load(3, 0, 1));
    p.push(Instr::alu(AluOp::Add, 3, 3, 0));
    p.push(Instr::halt());
    EXPECT_EQ(p.usedRegs(), (std::vector<Reg>{0, 1, 3}));
}

TEST(Program, Counters)
{
    Program p;
    p.push(Instr::load(1, 0, 2));
    p.push(Instr::branchImm(CmpOp::Eq, 1, 0, 4));
    p.push(Instr::storeImm(1, 0, 8));
    Instr shadow = Instr::load(2, 0, 1);
    shadow.transient = true;
    p.push(shadow); // transient: not an architectural access
    p.push(Instr::halt());
    EXPECT_EQ(p.branchCount(), 1);
    EXPECT_EQ(p.memAccessCount(), 2);
}

TEST(Program, ToStringShowsLabelsAndTransients)
{
    Program p;
    p.push(Instr::branchImm(CmpOp::Slt, 0, 7, 2));
    Instr shadow = Instr::loadImm(1, 0, 0);
    shadow.transient = true;
    p.push(shadow);
    p.push(Instr::halt());
    const std::string s = p.toString();
    EXPECT_NE(s.find("b.lt x0, #7, L2"), std::string::npos);
    EXPECT_NE(s.find("@t ldr x1, [x0]"), std::string::npos);
    EXPECT_NE(s.find("L2:"), std::string::npos);
}

} // namespace
} // namespace scamv::bir
