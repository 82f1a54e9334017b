// A minimal x86-64 instruction emitter for the AVM-32 block translator.
//
// This is not a general assembler: it provides exactly the encodings the
// translator (src/vm/jit/jit.cc) needs, under the fixed register
// conventions of the generated code:
//
//   rbx = JitContext*            (callee-saved, loaded by the trampoline)
//   rbp = guest register file    (&cpu_.regs[0]; offsets 4*reg, disp8)
//   r12 = guest memory base      (mem_.data())
//   r13 = live icount            (committed to ctx at every exit)
//   r14 = target icount
//   eax/ecx/edx = scratch
//   esi, edi, r8d-r11d, r15d = guest registers held in host registers
//                  (self-loop regions only; see MapGuest)
//
// Every guest-register operand is encoded as x86 r/m: [rbp + 4*greg]
// by default, or the mapped host register once MapGuest assigned one,
// so each translation rule serves both the memory-resident and the
// register-resident form.
//
// Code is emitted into a plain byte vector and copied into the
// TranslationCache once the block is complete; rel32 fixups inside the
// block are offset-based so the copy needs no relocation.
#ifndef SRC_VM_JIT_EMITTER_H_
#define SRC_VM_JIT_EMITTER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace avm {
namespace jit {

// x86 condition codes (the 0x0F 0x8x long-form Jcc suffix nibble).
enum class Cc : uint8_t {
  kB = 0x2,   // below (unsigned <)
  kAe = 0x3,  // above-or-equal (unsigned >=)
  kE = 0x4,   // equal
  kNe = 0x5,  // not equal
  kBe = 0x6,  // below-or-equal (unsigned <=)
  kA = 0x7,   // above (unsigned >)
  kL = 0xC,   // less (signed <)
  kGe = 0xD,  // greater-or-equal (signed >=)
};

// 32-bit scratch registers used by the generated code.
enum class R32 : uint8_t { kEax = 0, kEcx = 1, kEdx = 2 };

// Host registers that can hold a guest register across a self-loop:
// esi, edi, r8d-r11d and r15d. None is a scratch register of the
// translation rules, and r15 is saved by the trampoline.
inline constexpr uint8_t kGuestHostRegs[] = {6, 7, 8, 9, 10, 11, 15};

class Emitter {
 public:
  Emitter() {
    for (int8_t& h : host_) {
      h = -1;
    }
  }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  size_t size() const { return buf_.size(); }

  void Byte(uint8_t b) { buf_.push_back(b); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; i++) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  static uint8_t ModRM(uint8_t mod, uint8_t reg, uint8_t rm) {
    return static_cast<uint8_t>(mod << 6 | (reg & 7) << 3 | (rm & 7));
  }

  // --- Guest register placement -----------------------------------------

  // From now on guest register `greg` lives in host register `host` (one
  // of kGuestHostRegs) for every r/m operand emitted.
  void MapGuest(int greg, uint8_t host) { host_[greg] = static_cast<int8_t>(host); }
  // Host register holding `greg`, or -1 when it stays in memory.
  int HostOf(int greg) const { return host_[greg]; }
  // Guest-register operands emitted so far, per register: the weights
  // for choosing which registers a self-loop holds in host registers.
  uint32_t GuestUses(int greg) const { return uses_[greg]; }

  // mov host32, [rbp + 4*greg]
  void LoadHostFromGuestMem(uint8_t host, int greg) { HostMemRbp(0x8B, host, greg); }
  // mov [rbp + 4*greg], host32
  void StoreHostToGuestMem(int greg, uint8_t host) { HostMemRbp(0x89, host, greg); }

  // --- Guest register accesses: [rbp + 4*greg] or the mapped register ---

  // mov r32, [rbp + 4*greg]
  void LoadGuest(R32 r, int greg) { MemRbp(0x8B, static_cast<uint8_t>(r), greg); }
  // mov [rbp + 4*greg], r32
  void StoreGuest(int greg, R32 r) { MemRbp(0x89, static_cast<uint8_t>(r), greg); }
  // op [rbp + 4*greg], r32   for add/sub/and/or/xor (memory-destination)
  void AddMemGuest(int greg, R32 r) { MemRbp(0x01, static_cast<uint8_t>(r), greg); }
  void SubMemGuest(int greg, R32 r) { MemRbp(0x29, static_cast<uint8_t>(r), greg); }
  void AndMemGuest(int greg, R32 r) { MemRbp(0x21, static_cast<uint8_t>(r), greg); }
  void OrMemGuest(int greg, R32 r) { MemRbp(0x09, static_cast<uint8_t>(r), greg); }
  void XorMemGuest(int greg, R32 r) { MemRbp(0x31, static_cast<uint8_t>(r), greg); }
  // imul eax, [rbp + 4*greg]
  void ImulEaxGuest(int greg) { MemRbp(0xAF, 0, greg, /*escape_0f=*/true); }
  // cmp eax, [rbp + 4*greg]
  void CmpEaxGuest(int greg) { MemRbp(0x3B, 0, greg); }
  // mov dword [rbp + 4*greg], imm32
  void MovGuestImm(int greg, uint32_t imm) {
    MemRbp(0xC7, 0, greg);
    U32(imm);
  }
  // add/or dword [rbp + 4*greg], imm32  (0x81 group, /0 and /1)
  void AddGuestImm(int greg, uint32_t imm) {
    MemRbp(0x81, 0, greg);
    U32(imm);
  }
  void OrGuestImm(int greg, uint32_t imm) {
    MemRbp(0x81, 1, greg);
    U32(imm);
  }
  // shl/shr/sar dword [rbp + 4*greg], cl  (0xD3 group: /4, /5, /7)
  void ShlGuestCl(int greg) { MemRbp(0xD3, 4, greg); }
  void ShrGuestCl(int greg) { MemRbp(0xD3, 5, greg); }
  void SraGuestCl(int greg) { MemRbp(0xD3, 7, greg); }

  // --- Scratch-register ops -------------------------------------------

  // mov r32, imm32
  void MovRegImm(R32 r, uint32_t imm) {
    Byte(static_cast<uint8_t>(0xB8 + static_cast<uint8_t>(r)));
    U32(imm);
  }
  // mov edx, eax
  void MovEdxEax() {
    Byte(0x89);
    Byte(0xC2);
  }
  // add eax, imm32 (no-op when imm == 0)
  void AddEaxImm(uint32_t imm) {
    if (imm == 0) {
      return;
    }
    Byte(0x05);
    U32(imm);
  }
  // cmp eax, imm32
  void CmpEaxImm(uint32_t imm) {
    Byte(0x3D);
    U32(imm);
  }
  // test eax, imm32
  void TestEaxImm(uint32_t imm) {
    Byte(0xA9);
    U32(imm);
  }
  // test ecx, ecx
  void TestEcxEcx() {
    Byte(0x85);
    Byte(0xC9);
  }
  // xor edx, edx
  void XorEdxEdx() {
    Byte(0x31);
    Byte(0xD2);
  }
  // div ecx  (eax = edx:eax / ecx, edx = remainder)
  void DivEcx() {
    Byte(0xF7);
    Byte(0xF1);
  }
  // shr edx, imm8
  void ShrEdxImm(uint8_t imm) {
    Byte(0xC1);
    Byte(0xEA);
    Byte(imm);
  }
  // setcc al; movzx eax, al
  void SetccEax(Cc cc) {
    Byte(0x0F);
    Byte(static_cast<uint8_t>(0x90 + static_cast<uint8_t>(cc)));
    Byte(0xC0);
    Byte(0x0F);
    Byte(0xB6);
    Byte(0xC0);
  }

  // --- Guest memory accesses: [r12 + rax] ------------------------------

  // mov r32, [r12 + rax]
  void LoadMem32(R32 r) {
    Byte(0x41);
    Byte(0x8B);
    Byte(ModRM(0, static_cast<uint8_t>(r), 4));
    Byte(0x04);  // SIB: base=r12, index=rax
  }
  // movzx r32, byte [r12 + rax]
  void LoadMem8(R32 r) {
    Byte(0x41);
    Byte(0x0F);
    Byte(0xB6);
    Byte(ModRM(0, static_cast<uint8_t>(r), 4));
    Byte(0x04);
  }
  // mov [r12 + rax], r32
  void StoreMem32(R32 r) {
    Byte(0x41);
    Byte(0x89);
    Byte(ModRM(0, static_cast<uint8_t>(r), 4));
    Byte(0x04);
  }
  // mov [r12 + rax], r8 (low byte of r)
  void StoreMem8(R32 r) {
    Byte(0x41);
    Byte(0x88);
    Byte(ModRM(0, static_cast<uint8_t>(r), 4));
    Byte(0x04);
  }

  // --- JitContext accesses: [rbx + disp8] ------------------------------

  // mov rcx, [rbx + disp8]   (loads a pointer field)
  void LoadCtxPtrRcx(uint8_t disp) {
    Byte(0x48);
    Byte(0x8B);
    Byte(ModRM(1, 1, 3));
    Byte(disp);
  }
  // mov rax, [rbx + disp8]
  void LoadCtxPtrRax(uint8_t disp) {
    Byte(0x48);
    Byte(0x8B);
    Byte(ModRM(1, 0, 3));
    Byte(disp);
  }
  // mov [rbx + disp8], r13
  void StoreCtxR13(uint8_t disp) {
    Byte(0x4C);
    Byte(0x89);
    Byte(ModRM(1, 5, 3));
    Byte(disp);
  }
  // mov r13, [rbx + disp8]
  void LoadR13Ctx(uint8_t disp) {
    Byte(0x4C);
    Byte(0x8B);
    Byte(ModRM(1, 5, 3));
    Byte(disp);
  }
  // Calls the helper whose pointer is at [rbx + disp8] with the context
  // as its only argument, then tests its uint32_t result:
  //   mov rdi, rbx; sub rsp, 8; call [rbx + disp8]; add rsp, 8; test eax, eax
  // Generated code runs with rsp = 8 (mod 16) (the trampoline pushes six
  // registers after the caller's return address), hence the padding.
  // The call clobbers the caller-saved registers, mapped ones included.
  void CallCtxHelper(uint8_t disp) {
    static constexpr uint8_t kPre[] = {0x48, 0x89, 0xDF, 0x48, 0x83, 0xEC, 0x08};
    for (uint8_t b : kPre) {
      Byte(b);
    }
    Byte(0xFF);
    Byte(ModRM(1, 2, 3));
    Byte(disp);
    static constexpr uint8_t kPost[] = {0x48, 0x83, 0xC4, 0x08, 0x85, 0xC0};
    for (uint8_t b : kPost) {
      Byte(b);
    }
  }
  // mov [rbx + disp8], eax
  void StoreCtx32Eax(uint8_t disp) {
    Byte(0x89);
    Byte(ModRM(1, 0, 3));
    Byte(disp);
  }
  // mov dword [rbx + disp8], imm32
  void StoreCtx32Imm(uint8_t disp, uint32_t imm) {
    Byte(0xC7);
    Byte(ModRM(1, 0, 3));
    Byte(disp);
    U32(imm);
  }
  // mov byte [rcx + rdx], imm8
  void StoreByteRcxRdx(uint8_t imm) {
    Byte(0xC6);
    Byte(ModRM(0, 0, 4));
    Byte(0x11);  // SIB: base=rcx, index=rdx
    Byte(imm);
  }
  // cmp byte [rcx + rdx], 0
  void CmpByteRcxRdxZero() {
    Byte(0x80);
    Byte(ModRM(0, 7, 4));
    Byte(0x11);
    Byte(0x00);
  }
  // mov byte [rax + disp8], imm8
  void StoreByteRaxDisp(uint8_t disp, uint8_t imm) {
    Byte(0xC6);
    Byte(ModRM(1, 0, 0));
    Byte(disp);
    Byte(imm);
  }

  // --- icount bookkeeping (r13/r14) ------------------------------------

  // lea rax, [r13 + disp32]; returns the offset of the disp32 so the
  // block length can be patched in once translation finishes.
  size_t LeaRaxR13Disp32(uint32_t disp) {
    Byte(0x49);
    Byte(0x8D);
    Byte(ModRM(2, 0, 5));
    size_t at = size();
    U32(disp);
    return at;
  }
  // cmp rax, r14
  void CmpRaxR14() {
    Byte(0x4C);
    Byte(0x39);
    Byte(0xF0);
  }
  // add r13, imm32 (no-op when imm == 0)
  void AddR13Imm(uint32_t imm) {
    if (imm == 0) {
      return;
    }
    Byte(0x49);
    Byte(0x81);
    Byte(0xC5);
    U32(imm);
  }

  // --- Control flow within the block (rel32, offset-based fixups) ------

  // jcc rel32 with the target unknown; returns the fixup site.
  size_t Jcc(Cc cc) {
    Byte(0x0F);
    Byte(static_cast<uint8_t>(0x80 + static_cast<uint8_t>(cc)));
    size_t at = size();
    U32(0);
    return at;
  }
  // jmp rel32 with the target unknown; returns the fixup site.
  size_t Jmp() {
    Byte(0xE9);
    size_t at = size();
    U32(0);
    return at;
  }
  // jcc rel32 to an already emitted offset (a loop back edge).
  void JccTo(Cc cc, size_t target) {
    Byte(0x0F);
    Byte(static_cast<uint8_t>(0x80 + static_cast<uint8_t>(cc)));
    U32(static_cast<uint32_t>(static_cast<int64_t>(target) - static_cast<int64_t>(size() + 4)));
  }
  // Points a previously emitted rel32 at the current position.
  void Bind(size_t fixup_at) { PatchU32(fixup_at, static_cast<uint32_t>(size() - (fixup_at + 4))); }
  void PatchU32(size_t at, uint32_t v) {
    for (int i = 0; i < 4; i++) {
      buf_[at + static_cast<size_t>(i)] = static_cast<uint8_t>(v >> (8 * i));
    }
  }

  // --- Block exit: commit icount and return to the trampoline caller ---

  // mov eax, exit_code; mov [rbx+icount_disp], r13; pop r15..rbx; ret
  void ExitEpilogue(uint32_t exit_code, uint8_t icount_disp) {
    if (exit_code == 0) {
      Byte(0x31);  // xor eax, eax
      Byte(0xC0);
    } else {
      MovRegImm(R32::kEax, exit_code);
    }
    // mov [rbx + icount_disp], r13
    Byte(0x4C);
    Byte(0x89);
    Byte(ModRM(1, 5, 3));
    Byte(icount_disp);
    static constexpr uint8_t kPops[] = {0x41, 0x5F, 0x41, 0x5E, 0x41, 0x5D,
                                        0x41, 0x5C, 0x5D, 0x5B, 0xC3};
    for (uint8_t b : kPops) {
      Byte(b);
    }
  }

 private:
  // [REX.B] [0x0F] opcode + r/m for guest register `greg`: modrm(01, reg,
  // rbp) + disp8 into the register file, or modrm(11, reg, host) when
  // the register is mapped. `reg` is a scratch register or an opcode
  // extension (< 8), so REX.R is never needed.
  void MemRbp(uint8_t opcode, uint8_t reg, int greg, bool escape_0f = false) {
    uses_[greg]++;
    const int host = host_[greg];
    if (host >= 8) {
      Byte(0x41);
    }
    if (escape_0f) {
      Byte(0x0F);
    }
    Byte(opcode);
    if (host < 0) {
      Byte(ModRM(1, reg, 5));
      Byte(static_cast<uint8_t>(4 * greg));
    } else {
      Byte(ModRM(3, reg, static_cast<uint8_t>(host)));
    }
  }
  // [REX.R] opcode + modrm(01, host, rbp) + disp8: moves between a host
  // register and the guest register file.
  void HostMemRbp(uint8_t opcode, uint8_t host, int greg) {
    if (host >= 8) {
      Byte(0x44);
    }
    Byte(opcode);
    Byte(ModRM(1, host, 5));
    Byte(static_cast<uint8_t>(4 * greg));
  }

  std::vector<uint8_t> buf_;
  int8_t host_[16];
  uint32_t uses_[16] = {0};
};

}  // namespace jit
}  // namespace avm

#endif  // SRC_VM_JIT_EMITTER_H_
